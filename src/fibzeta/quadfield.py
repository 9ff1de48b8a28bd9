"""Exact arithmetic for real quadratic fields Q(sqrt(D)).

Provides the fundamental unit (computed from the periodic continued
fraction of sqrt(D), or of (1+sqrt(D))/2 when D = 1 mod 4), the
integer-recurrence Fibonacci/Lucas analogues built from traces of unit
powers, and Pell-type membership tests.

Everything here is exact big-integer arithmetic, apart from the one float
log eps that the evaluators use, which is rounded once from a 40-digit
decimal value, and the table of math.log(F(n)) that the direct series reads.
The records are immutable: units and sequence terms are named tuples, while
fields and membership results are FrozenRecords, equal and hashed by their
fields, whose attributes cannot be assigned.  A field caches its half unit,
log q, membership screens and that table on first use, and is safe to share
between threads or processes (a pickled field carries its defining fields
and builds its caches again on first use).

The sign of the unit norm decides which evaluations exist downstream: the
odd/even index split needs N(eps) = -1 (possible only for D = 1, 2 mod 4).
A norm +1 field has no split, but F(n) = (eta^(2n) - eta^(-2n))/sqrt(q)
with eta = eps^(1/2), so its full zeta is the even-indexed function of eta
and takes every evaluation route through that view.  No class-group
machinery is provided or needed.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from itertools import islice, takewhile
from typing import Iterable, Iterator, NamedTuple

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
# reads them at its argument.
_SQUARES_MOD_4032 = _squares_mod(64 * 63)
_SQUARES_MOD_2431 = _squares_mod(11 * 13 * 17)

# Membership reads residue screens indexed by n itself instead, one table per
# modulus below (4032, 2431, 437, 899, 1517, 2021), each the AND of the tables
# of its coprime factors: by the Chinese remainder theorem x is a square mod
# m1 m2 exactly when it is one mod m1 and mod m2.  _pell_roots ANDs all six
# along a block of n in C, packed at 2 bits per n, and they pass 0.017-0.068%
# of n <= 10^6 on to the exact isqrt for D = 2, 3, 5, 10, 13, 29 (the first
# two alone pass 3.1-7.3%).  Each table of two primes cuts the survivors
# two- to fourfold but costs a C pass per block (about 0.2 ms per 10^6 n
# packed), more than the isqrt tests it would save past 47: the pell suite
# over n <= 10^6 at D = 2, 5, 10, 13 took 11.2 ms with these six, 12.1 ms
# with 53*59 added (exact tests 256/369/184/393 -> 82/115/59/109) and 13.2 ms
# with 61*67 as well (36/49/16/37), medians of 12 alternating rounds.  Built
# from the factors, a field's six take about 0.16 ms on first use (against
# 3.4 ms residue by residue) and packing them 0.12 ms more.
_SCREEN_FACTORS = ((64, 63), (11, 13, 17), (19, 23), (29, 31), (37, 41), (43, 47))


def _membership_table(d: int, ell: int, m: int) -> bytes:
    """Table t over r mod m: bit 0 of t[r] is 1 when d r^2 - ell is a square
    mod m, bit 1 when d r^2 + ell is.

    d n^2 +- ell mod m depends only on n mod m, so t[n % m] is the residue
    screen of both membership arguments without forming them.
    """
    squares = _squares_mod(m)
    return bytes(
        squares[(d * r * r - ell) % m] | squares[(d * r * r + ell) % m] << 1
        for r in range(m)
    )


def _and_tables(tables: Iterable[bytes], m: int) -> bytes:
    """Entry r is the AND of table[r % len(table)] over the tables, for
    r < m, a common multiple of their lengths: one int AND in C per table."""
    screen = -1
    for table in tables:
        screen &= int.from_bytes(table * (m // len(table)), "little")
    return screen.to_bytes(m, "little")


def _packed(table: bytes) -> bytes:
    """table at 2 bits per n, four n to a byte: bits 2k and 2k + 1 of byte j
    hold table[(4 j + k) % p], p = len(table).  The pattern covers 4 p n in
    p bytes and repeats, so the entry of n lies at byte (n % 4p) // 4, bits
    2 (n % 4).  Each strided slice [k::4] of the table repeated four times
    holds the entries of one k; the fields are disjoint, so the sum of the
    shifted slices is their OR."""
    four = table * 4
    return sum(int.from_bytes(four[k::4], "little") << 2 * k for k in range(4)).to_bytes(
        len(table), "little"
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


class FrozenRecord:
    """Base of the immutable records that cannot be named tuples, because
    they cache on the instance, are read on a hot path (a slot is read
    faster than a tuple field) or must not act as sequences.

    A subclass lists its fields in order in _fields.  Instances are built
    from the fields, positionally or by name, and compare, hash, print and
    pickle by them; assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        names = self._fields
        if len(values) + len(named) != len(names) or not named.keys() <= set(names[len(values):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in (*zip(names, values), *named.items()):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _UnitElementFields(NamedTuple):
    a: int
    b: int
    q: int


class UnitElement(_UnitElementFields):
    """An element (a + b*sqrt(q))/2 of the ring of integers, in trace coordinates."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> UnitElement:
        self = super().__new__(cls, *args, **kwargs)
        if (self.a * self.a - self.q * self.b * self.b) % 4 != 0:
            raise DomainError(
                f"({self.a} + {self.b} sqrt({self.q}))/2 is not an algebraic integer"
            )
        return self

    @classmethod
    def _make(cls, values) -> UnitElement:
        return cls(*values)

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


class SequenceTerm(NamedTuple):
    index: int
    fib: int
    lucas: int


class HalfUnit(NamedTuple):
    """The unit eta whose even powers index the even-function series, and the
    F-sequence that series sums: eta = eps and F(2n) for a norm -1 unit;
    eta = eps^(1/2) and every F(n) = (eta^(2n) - eta^(-2n))/sqrt(q) for norm +1.

    The other fields are constants of eta that every binomial evaluation or
    pole search would otherwise form again: eta^(-2) = exp(-2 log eta), its
    square, and pi / log eta, the spacing of the pole lattice in Im s."""

    log_eta: float
    direct_parity: str
    inv_eta2: float
    inv_eta4: float
    pole_spacing: float


class QuadraticField(FrozenRecord):
    """Q(sqrt(D)) with its fundamental unit and derived constants.

    q is D when D = 1 mod 4 and 4D otherwise; ell is the matching shift
    (4 resp. 1) used by the shifted-convolution series; log_eps is the
    natural log of the fundamental unit as a float.  Immutable; its cached
    properties live in the instance __dict__.
    """

    D: int
    q: int
    ell: int
    eps: UnitElement
    norm_eps: int
    log_eps: float
    _fields = ("D", "q", "ell", "eps", "norm_eps", "log_eps")

    @property
    def is_norm_minus_one(self) -> bool:
        return self.norm_eps == -1

    @property
    def trace_eps(self) -> int:
        return self.eps.trace

    @cached_property
    def half_unit(self) -> HalfUnit:
        if self.norm_eps == -1:
            log_eta, parity = self.log_eps, PARITY_EVEN
        else:
            log_eta, parity = 0.5 * self.log_eps, PARITY_COMBINED
        inv_eta2 = math.exp(-2.0 * log_eta)
        return HalfUnit(log_eta, parity, inv_eta2, inv_eta2**2, math.pi / log_eta)

    @cached_property
    def log_q(self) -> float:
        """math.log(q), the exponent of the q^(s/2) prefactor."""
        return math.log(self.q)

    @cached_property
    def _membership_tables(self) -> tuple[bytes, ...]:
        """The residue screens of D n^2 +- ell, one per modulus of
        _SCREEN_FACTORS (bit 0 the minus sign, bit 1 the plus sign), a byte
        per residue: the definition that _packed_screens packs for
        _pell_roots, the membership kernel.  Each is the AND, over one
        period, of its factors' tables.  Built on first use (about 0.2 ms),
        so that fields which never test membership or scan for squares skip
        them."""
        return tuple(
            _and_tables([_membership_table(self.D, self.ell, m) for m in factors], math.prod(factors))
            for factors in _SCREEN_FACTORS
        )

    @cached_property
    def _packed_screens(self) -> tuple[tuple[int, int, bytes], ...]:
        """(4 p, p, pattern) for each of _membership_tables, of modulus p,
        with the table packed at 2 bits per n (see _packed): the form that
        _pell_roots reads, with both periods at hand, since a len() per
        table made a one-n call of a member 7% slower.  About 0.12 ms to
        pack the six, 11 337 bytes."""
        return tuple(
            (4 * len(table), len(table), _packed(table)) for table in self._membership_tables
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


class MembershipResult(FrozenRecord):
    verdict: str
    witness: int | None
    __slots__ = _fields = ("verdict", "witness")

    def __bool__(self) -> bool:
        return self.verdict != NOT_MEMBER


# results are immutable, so every non-member shares this one
_NOT_A_MEMBER = MembershipResult(NOT_MEMBER, None)


def _exact_root(x: int) -> int:
    """isqrt(x) if x is a positive square, else 0."""
    r = math.isqrt(x)
    return r if r * r == x else 0


# n screened per block by _pell_roots: a block costs a few C passes over
# its packed screen, a quarter of a byte per n (per table a repeat, a slice
# and an AND, then the translate), so 2^16 spreads that set-up over enough n
# to vanish beside the Python steps of the survivors, and keeps memory under
# 100 KB whatever the range
_PELL_BLOCK = 1 << 16
# _ANY_SIGN[signs] maps a packed screen byte to 1 where one of its four n has
# a bit of signs set, so that bytes.find steps from byte to byte of survivors
# without touching the bytes in between
_ANY_SIGN = tuple(bytes(b & signs * 0x55 != 0 for b in range(256)) for signs in range(4))


def _pell_roots(
    field: QuadraticField, start: int, stop: int, signs: int = 3
) -> Iterator[tuple[int, int, int]]:
    """(n, minus_root, plus_root) for each n in [start, stop), ascending, for
    which D n^2 - ell or D n^2 + ell is a square; a root is isqrt of that
    argument, or 0 where it is not a square.  signs selects the signs tested
    (bit 0 minus, bit 1 plus); the root of a sign left out is 0.  start >= 1,
    so that both arguments are positive.

    The membership kernel: is_fib is its one-n case, and the Pell sweep and
    the shifted-convolution scan read it over a range.  Each block of n gets
    the screen of all the field's residue tables at once, ANDed in C at 2
    bits per n (bit 0 minus, bit 1 plus), four n to a byte.  The pattern of
    a table of modulus p repeats every 4p n (see _packed), so every table is
    read from byte (lo % 4p) // 4 of its pattern on, with n = lo + i at bits
    2 (a + i) and 2 (a + i) + 1 for the same a = lo % 4: the tables line up
    with no shift, and a mask clears the n outside the block.  Once the AND
    is 0 no n of the block passes, and the rest of its tables are not read.
    Otherwise bytes.find steps from one byte with a survivor to the next,
    and each of its n that passes gets the exact isqrt test of each sign in
    signs that its bits admit, so the roots are exact for integers of any
    size.
    """
    packed = field._packed_screens
    d, ell = field.D, field.ell
    any_sign = _ANY_SIGN[signs]
    for lo in range(start, stop, _PELL_BLOCK):
        count = min(_PELL_BLOCK, stop - lo)
        a = lo & 3
        size = a + count + 3 >> 2
        screen = (1 << 2 * count) - 1 << 2 * a
        for period, p, pattern in packed:
            first = lo % period >> 2
            end = first + size
            screen &= int.from_bytes((pattern * (end // p + 1))[first:end], "little")
            if not screen:
                break
        if not screen:
            continue
        screen = screen.to_bytes(size, "little")
        find = screen.translate(any_sign).find
        i = find(1)
        while i >= 0:
            quad = screen[i]
            n = lo - a + 4 * i
            while quad:
                bits = quad & signs
                if bits:
                    base = d * n * n
                    minus = bits & 1 and _exact_root(base - ell)
                    plus = bits & 2 and _exact_root(base + ell)
                    if minus or plus:
                        yield n, minus, plus
                quad >>= 2
                n += 1
            i = find(1, i + 1)


def _membership_result(field: QuadraticField, minus: int, plus: int) -> MembershipResult:
    """The verdict of a kernel hit with these roots (see is_fib)."""
    scale = 2 if field.ell == 1 else 1  # q = 4D: X = 2Y
    if field.norm_eps == -1:
        if minus:
            return MembershipResult(MEMBER_ODD_INDEX, scale * minus)
        return MembershipResult(MEMBER_EVEN_INDEX, scale * plus)
    return MembershipResult(MEMBER, scale * (plus or minus))


def is_fib(field: QuadraticField, n: int) -> MembershipResult:
    """Pell-type membership test: is n a term of the F sequence?

    Decides solvability of X^2 = q n^2 +- 4 exactly (reduced to
    Y^2 = D n^2 +- 1 when q = 4D, witness X = 2Y), so both arguments are
    D n^2 +- ell.  This is the one-n case of _pell_roots, the kernel the
    Pell sweep runs over a range: the field's six residue tables, read at
    n mod 4032, 2431, 437, 899, 1517 and 2021, reject almost every
    non-member with no big-integer product, and only the signs that pass
    all six get the exact isqrt test.  A call costs about 1.4 us for a
    non-member, which the first table most often rejects (its one-n block
    then ends before any bytes.find), and about 7 us for a member, which
    reads all six and takes the exact test.  Every non-member gets one
    shared result.
    With a norm -1 unit the solvable sign determines the index parity: -4
    for odd index, +4 for even.  When both signs solve (only n=1 for D=5),
    the odd-index verdict is reported.  A norm +1 unit has no split, and its
    members get the plain MEMBER verdict.
    """
    if n < 1:
        raise DomainError(f"membership test needs a positive integer, got {n}")
    for _, minus, plus in _pell_roots(field, n, n + 1):
        return _membership_result(field, minus, plus)
    return _NOT_A_MEMBER


def pell_solutions_upto(field: QuadraticField, sign: int, t_max: int) -> tuple[int, ...]:
    """Every t with 1 <= t <= t_max for which D t^2 + sign*ell is a positive
    square, ascending; sign is +1 or -1.

    The hits of _pell_roots over 1 .. t_max with only this sign tested, so
    the same screens and exact isqrt tests as is_fib decide each t.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return tuple(t for t, _, _ in _pell_roots(field, 1, t_max + 1, 2 if sign > 0 else 1))
