"""Independent oracles and analytic identities.

- the pole lattice s = -2k + pi i m / log eps with analytic residues of the
  odd and even continuations, derived from the unique singular k-term of the
  binomial series (denominator derivative 2 log eps at the pole);
- numeric residues by trapezoid contour integration, for validating them;
- shifted-convolution Dirichlet series whose coefficients r1(n) r1(D n -+ ell)
  detect pairs of squares: an evaluation route that never touches eps, gamma,
  or zeta.  Its scan reads the field's residue tables, which depend only on
  D and ell, so the support is still found without the unit (eps enters
  only the tail bound);
- the exact rational value of the even zeta at s = -1, computed in Q(sqrt(q))
  with big-integer rationals, plus its Galois-cancellation witness.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .continuation import (
    LATTICE_COMBINED,
    LATTICE_SPLIT,
    METHOD_SHIFTED,
    ZetaEvaluation,
    _q_power,
)
from .errors import ContourThroughPoleError, OutOfRegionError, TooSlowConvergenceError
from .quadfield import FrozenRecord, QuadraticField, pell_solutions_upto

__all__ = [
    "PoleSpec",
    "pole_lattice",
    "residue_numeric",
    "shifted_convolution_odd",
    "shifted_convolution_even",
    "Surd",
    "EvenMinusOneValue",
    "special_value_even_minus_one",
]

# default scan bound of the shifted-convolution series: 10^5 square
# candidates n = t^2 per (D, sign)
SHIFTED_CONV_BOUND = 10_000_000_000


class PoleSpec(NamedTuple):
    """A lattice pole with the residues of both split continuations.

    The singular k-term of the binomial series gives, at s0 = -2k + pi i m/log eps,

        residue_odd  = q^(s0/2) C(-s0, k) (-1)^m / (2 log eps)
        residue_even = q^(s0/2) C(-s0, k) (-1)^k / (2 log eps)

    (eps^(s0+2k) = e^(i pi m) = (-1)^m exactly).  The residues cancel in the
    combined function exactly when m + k is odd.
    """

    k: int
    m: int
    location: complex
    residue_odd: complex
    residue_even: complex
    survives_in_combined: bool


def _binomial_coefficient(s0: complex, k: int) -> complex:
    """C(-s0, k) by the recurrence C(-s, j+1) = C(-s, j) (-s - j)/(j + 1).

    continuation._binomial_sum runs the same recurrence inline, one step per
    series term.
    """
    out: complex = 1.0 + 0j
    for j in range(k):
        out = out * (-s0 - j) / (j + 1.0)
    return out


def _pole_spec(field: QuadraticField, k: int, m: int) -> PoleSpec:
    log_eps = field.log_eps
    s0 = complex(-2 * k, math.pi * m / log_eps)  # +0.0, not -0.0, at k = 0
    base = _q_power(field, s0) * _binomial_coefficient(s0, k) / (2.0 * log_eps)
    res_odd = base * ((-1) ** m)
    res_even = base * ((-1) ** k)
    return PoleSpec(
        k=k,
        m=m,
        location=s0,
        residue_odd=res_odd,
        residue_even=res_even,
        survives_in_combined=(m + k) % 2 == 0,
    )


def pole_lattice(
    field: QuadraticField,
    k_max: int,
    m_max: int,
    lattice: str = LATTICE_SPLIT,
) -> list[PoleSpec]:
    """Lattice poles with k <= k_max, |m| <= m_max; requires a norm -1 unit.

    The lattices are those of nearest_lattice_pole: "split" is every pole of
    Z_odd and Z_even (the two share their locations), "combined" only the
    half where m + k is even, which survives in Z_odd + Z_even.
    """
    if lattice not in (LATTICE_SPLIT, LATTICE_COMBINED):
        raise ValueError(f"unknown lattice {lattice!r}")
    field.require_norm_minus_one()
    split = lattice == LATTICE_SPLIT
    return [_pole_spec(field, k, m) for k in range(k_max + 1)
            for m in range(-m_max, m_max + 1) if split or (k + m) % 2 == 0]


def residue_numeric(
    zfun: Callable[[complex], complex],
    s0: complex,
    radius: float = 1e-3,
    num_points: int = 64,
    avoid: Iterable[complex] = (),
    guard: float | None = None,
) -> complex:
    """(1/2 pi i) contour integral of zfun around s0, N-point trapezoid rule.

    The rule is exponentially accurate for a circle well inside the annulus
    of analyticity.  `avoid` lists other poles; the contour must stay at
    least `guard` (default: radius/10) away from each of them.
    """
    if num_points < 16:
        raise ValueError("at least 16 contour points required")
    guard = radius * 0.1 if guard is None else guard
    for p in avoid:
        gap = abs(abs(p - s0) - radius)
        if p != s0 and gap <= guard:
            raise ContourThroughPoleError(
                f"contour of radius {radius} around {s0} passes within "
                f"{gap:.2e} of the pole at {p}"
            )
    acc = 0j
    for j in range(num_points):
        rot = cmath.exp(2j * math.pi * j / num_points)
        acc += zfun(s0 + radius * rot) * rot
    return acc * radius / num_points


@lru_cache(maxsize=64)
def _square_pair_support(
    field: QuadraticField, shift_sign: int, n_max: int
) -> tuple[tuple[int, int], ...]:
    """All (n, coefficient) with r1(n) r1(D n + shift_sign*ell) != 0 for
    n <= n_max, ascending.

    Only n = t^2 can count (r1 kills the rest), and D t^2 +- ell must be a
    square: quadfield.pell_solutions_upto finds those t through the same
    residue tables that screen is_fib.  The product r1 r1 / 4 is 1 at every
    hit (both factors 2).  Cached, since every scan at one (field, sign,
    n_max) finds the same support; a tuple, so callers share it safely.
    """
    return tuple(
        (t * t, 1) for t in pell_solutions_upto(field, shift_sign, math.isqrt(n_max))
    )


def _shifted_convolution(
    field: QuadraticField, s: complex, n_max: int, shift_sign: int
) -> ZetaEvaluation:
    s = complex(s)
    if s.real <= 0:
        raise OutOfRegionError(f"shifted convolution needs Re s > 0, got {s.real}")
    support = _square_pair_support(field, shift_sign, n_max)
    total = 0j
    for n, coeff in support:
        total += coeff * cmath.exp(-0.5 * s * math.log(n))
    # members grow at least geometrically (ratio eta^2 in sqrt(n), eta of
    # HalfUnit), so the tail is below the first candidate past the scan bound
    first_out = math.exp(-0.5 * s.real * math.log(n_max))
    ratio = math.exp(-2.0 * s.real * field.half_unit.log_eta)
    if ratio == 1.0:
        # Re s is too small for eta^(-2 Re s) to differ from 1: no tail bound
        raise TooSlowConvergenceError(math.inf, math.isqrt(n_max))
    tail = first_out / (1.0 - ratio)
    return ZetaEvaluation(total, METHOD_SHIFTED, len(support), tail, True)


def shifted_convolution_odd(
    field: QuadraticField, s: complex, n_max: int = SHIFTED_CONV_BOUND
) -> ZetaEvaluation:
    """Z_odd(s) = (1/4) sum_n r1(n) r1(D n - ell) n^(-s/2), truncated at n_max.

    Nonzero terms occur exactly at n = F(2r-1)^2, each contributing
    F(2r-1)^(-s); an evaluation route independent of the unit machinery
    (norm -1 only).
    """
    return _shifted_convolution(field, s, n_max, -1)


def shifted_convolution_even(
    field: QuadraticField, s: complex, n_max: int = SHIFTED_CONV_BOUND
) -> ZetaEvaluation:
    """Z_even(s) = (1/4) sum_n r1(n) r1(D n + ell) n^(-s/2), truncated at n_max
    (for a norm +1 unit every F(n)^2 is a hit: the full zeta)."""
    return _shifted_convolution(field, s, n_max, +1)


class Surd(FrozenRecord):
    """x + y sqrt(n) with exact rational x, y.  Not a tuple, so that 2 * surd
    raises TypeError rather than repeating it."""

    x: Fraction
    y: Fraction
    n: int
    __slots__ = _fields = ("x", "y", "n")

    def __add__(self, other):
        other = self._coerce(other)
        return Surd(self.x + other.x, self.y + other.y, self.n)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        return Surd(self.x - other.x, self.y - other.y, self.n)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        return Surd(
            self.x * other.x + self.n * self.y * other.y,
            self.x * other.y + self.y * other.x,
            self.n,
        )

    def __truediv__(self, other):
        other = self._coerce(other)
        denom = other.x * other.x - self.n * other.y * other.y
        if denom == 0:
            raise ZeroDivisionError("division by zero surd")
        rx = (self.x * other.x - self.n * self.y * other.y) / denom
        ry = (self.y * other.x - self.x * other.y) / denom
        return Surd(rx, ry, self.n)

    def conjugate(self) -> "Surd":
        return Surd(self.x, -self.y, self.n)

    @property
    def is_rational(self) -> bool:
        return self.y == 0

    def _coerce(self, other) -> "Surd":
        if isinstance(other, Surd):
            if other.n != self.n:
                raise ValueError("mixed radicands")
            return other
        return Surd(Fraction(other), Fraction(0), self.n)

    def __float__(self) -> float:
        return float(self.x) + float(self.y) * math.sqrt(self.n)

    def __str__(self) -> str:
        return f"{self.x} + {self.y}*sqrt({self.n})"


class EvenMinusOneValue(NamedTuple):
    """Exact value of the even zeta at s = -1 (and of the full zeta there).

    value = (1 + eps^2) / ((1 - eps^2) sqrt(q)) simplifies to a rational;
    the witness is that the same expression with eps replaced by its
    conjugate (keeping +sqrt(q)) sums with it to exactly zero, so the value
    is Galois-fixed.  The odd part vanishes at -1, hence combined = value.
    """

    rational: Fraction
    combined: Fraction
    unit_ratio: Surd  # (1 + eps^2)/(1 - eps^2), a pure sqrt(q) multiple
    galois_sum_is_zero: bool

    @property
    def value(self) -> float:
        return float(self.rational)


def special_value_even_minus_one(field: QuadraticField) -> EvenMinusOneValue:
    """Exact rational Z_even(-1), with the Galois-cancellation witness."""
    field.require_norm_minus_one()
    q = field.q
    eps = Surd(Fraction(field.eps.a, 2), Fraction(field.eps.b, 2), q)
    one = Surd(Fraction(1), Fraction(0), q)
    sqrt_q = Surd(Fraction(0), Fraction(1), q)

    ratio = (one + eps * eps) / (one - eps * eps)
    value = ratio / sqrt_q
    if not value.is_rational:
        raise AssertionError(f"even zeta at -1 did not simplify to a rational for D={field.D}")

    eps_bar = eps.conjugate()
    ratio_bar = (one + eps_bar * eps_bar) / (one - eps_bar * eps_bar)
    witness = ratio / sqrt_q + ratio_bar / sqrt_q
    galois_zero = witness.x == 0 and witness.y == 0

    return EvenMinusOneValue(
        rational=value.x,
        combined=value.x,
        unit_ratio=ratio,
        galois_sum_is_zero=galois_zero,
    )
