"""Independent oracles and analytic identities.

- the pole lattice s = -2k + pi i m / log eps with analytic residues of the
  odd and even continuations, derived from the unique singular k-term of the
  binomial series (denominator derivative 2 log eps at the pole), each
  column m of a table one running product in k;
- numeric residues by trapezoid contour integration, for validating them;
- shifted-convolution Dirichlet series whose coefficients r1(n) r1(D n -+ ell)
  detect pairs of squares: an evaluation route that never touches eps, gamma,
  or zeta.  Its scan reads the field's residue tables, which depend only on
  D and ell, so the support is still found without the unit (eps enters
  only the tail bound);
- the exact rational value of the even zeta at every negative odd integer,
  from the integer F and L sequences alone.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .continuation import (
    LATTICE_COMBINED,
    LATTICE_SPLIT,
    METHOD_SHIFTED,
    ZetaEvaluation,
    _q_power,
)
from .errors import DomainError, FactorOverflowError, OutOfRegionError, TooSlowConvergenceError
from .quadfield import QuadraticField, pell_solutions_upto, sequence_terms

__all__ = [
    "PoleSpec",
    "pole_lattice",
    "residue_numeric",
    "shifted_convolution_odd",
    "shifted_convolution_even",
    "special_value",
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


def pole_lattice(
    field: QuadraticField,
    k_max: int,
    m_max: int,
    lattice: str = LATTICE_SPLIT,
) -> list[PoleSpec]:
    """Lattice poles with k <= k_max, |m| <= m_max, in (k, m) order; requires
    a norm -1 unit.

    The lattices are those of nearest_lattice_pole, at its own points
    -2k + i m pi / log eta: "split" is every pole of Z_odd and Z_even (the
    two share their locations), "combined" only the half where m + k is
    even, which survives in Z_odd + Z_even.

    Each column m is one running product.  With y = Im s0 the residue is
    q^(iy/2) c_k / (2 log eps), c_k = C(2k - iy, k) q^(-k) the c_(k-1)
    before it times (2k - iy)(2k - 1 - iy) / (k (k - iy) q).  So q^(-k)
    offsets the growth of C(-s0, k) step by step (at D=5 q^(s0/2) underflows
    from k = 463 and C(-s0, k) overflows from k = 511, their product does
    not), and every partial product is a row's: on the combined lattice the
    step over a k with no row is folded into the next one.  A residue that
    leaves double range raises FactorOverflowError, naming its (k, m).  At
    each k the residue grows with |m|, so the columns run from the largest
    |m| down, and a table that refuses does so in its first column.
    """
    if lattice not in (LATTICE_SPLIT, LATTICE_COMBINED):
        raise ValueError(f"unknown lattice {lattice!r}")
    field.require_norm_minus_one()
    split = lattice == LATTICE_SPLIT
    spacing = field.half_unit.pole_spacing
    q = field.q
    two_log_eps = 2.0 * field.log_eps
    rows: list[PoleSpec] = []
    for m in sorted(range(-m_max, m_max + 1), key=lambda m: (-abs(m), -m)):
        y = m * spacing
        phase = _q_power(field, complex(0.0, y))  # q^(iy/2)
        c: complex = 1.0 + 0j
        step: complex = 1.0 + 0j  # the steps since the last row
        for k in range(k_max + 1):
            if k:
                step *= complex(2 * k, -y) * complex(2 * k - 1, -y) / (complex(k, -y) * (k * q))
            if not split and (k + m) % 2:
                continue
            c *= step
            step = 1.0 + 0j
            s0 = complex(-2 * k, y)  # -2 * k in integers: +0.0, not -0.0, at k = 0
            base = phase * c / two_log_eps
            if not cmath.isfinite(base):
                raise FactorOverflowError(f"residue (k={k}, m={m})", s0)
            rows.append(PoleSpec(k, m, s0, base * ((-1) ** m), base * ((-1) ** k),
                                 (m + k) % 2 == 0))
    rows.sort()  # by (k, m), the first two fields, unique to a row
    return rows


def residue_numeric(
    zfun: Callable[[complex], complex],
    s0: complex,
    radius: float = 1e-3,
    num_points: int = 64,
) -> complex:
    """(1/2 pi i) contour integral of zfun around s0, N-point trapezoid rule.

    On a circle of radius r around a simple pole, with zfun analytic out to
    the next pole at distance R, the rule errs by about (r/R)^N times the
    residue (Trefethen & Weideman, "The exponentially convergent
    trapezoidal rule", SIAM Review 56, 2014).  So the minimum, N = 16, is
    exact to rounding once r/R is below 0.1; a radius closer to the next
    pole needs N >= 16 / -log10(r/R) points (54 at r/R = 1/2).
    """
    if num_points < 16:
        raise ValueError("at least 16 contour points required")
    acc = 0j
    for j in range(num_points):
        rot = cmath.exp(2j * math.pi * j / num_points)
        acc += zfun(s0 + radius * rot) * rot
    return acc * radius / num_points


@lru_cache(maxsize=64)
def _square_pair_support(
    field: QuadraticField, shift_sign: int, n_max: int
) -> tuple[int, ...]:
    """All n <= n_max with r1(n) r1(D n + shift_sign*ell) != 0, ascending.

    Only n = t^2 can count (r1 kills the rest), and D t^2 +- ell must be a
    square: quadfield.pell_solutions_upto finds those t with the membership
    kernel behind is_fib.  Both factors are 2 at every hit, so the
    coefficient r1 r1 / 4 is 1 and the support carries none.  Cached, since
    every scan at one (field, sign, n_max) finds the same support; a tuple,
    so callers share it safely.
    """
    return tuple(t * t for t in pell_solutions_upto(field, shift_sign, math.isqrt(n_max)))


def _shifted_convolution(
    field: QuadraticField, s: complex, n_max: int, shift_sign: int
) -> ZetaEvaluation:
    s = complex(s)
    if s.real <= 0:
        raise OutOfRegionError(f"shifted convolution needs Re s > 0, got {s.real}")
    support = _square_pair_support(field, shift_sign, n_max)
    total = 0j
    for n in support:
        total += cmath.exp(-0.5 * s * math.log(n))
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


def special_value(field: QuadraticField, n: int) -> Fraction:
    """The exact rational Z_even(-n) for a positive odd integer n; for a norm
    +1 unit the full zeta there, the even function of eta = eps^(1/2).  Any
    other n raises DomainError.

    At s = -n the binomial series stops after k = n:

        Z_even(-n) = q^(-n/2) sum_{k=0..n} C(n,k) (-1)^k / (eps^(j_k) - 1)

    with j_k = 4k - 2n for a norm -1 unit and 2k - n for norm +1 (eps^j_k is
    eta^(4k - 2n) either way, and j_k is never 0).  Writing eps^j =
    (L(j) + F(j) sqrt(q))/2 with the field's own sequences, where
    L(j)^2 - q F(j)^2 = 4 since N(eps)^j = 1,

        1/(eps^j - 1) = -1/2 + F(j) sqrt(q) / (2 (L(j) - 2)).

    The -1/2 parts sum to -1/2 sum_k C(n,k) (-1)^k = 0.  Since n is odd and
    j_(n-k) = -j_k, where F changes sign and L does not, terms k and n - k
    are equal.  What is left is sqrt(q) sum_{k > n/2} C(n,k) (-1)^k F(j_k) /
    (L(j_k) - 2), and times q^(-n/2) only even powers of sqrt(q) remain: the
    value is rational, fixed by the Galois conjugation, with no witness to
    compute.  At D=5, n = 1, 3, 5 it is -1, 1/2, -7/22.

    Z_odd(-n) = 0 beside it: 1/Gamma(s) in the odd continuation forces the
    trivial zeros there.
    """
    if not isinstance(n, int) or n < 1 or n % 2 == 0:
        raise DomainError(f"special values are taken at s = -n for a positive odd n, got {n!r}")
    step = 2 if field.is_norm_minus_one else 1
    terms = sequence_terms(field, step * n + 1)
    total = Fraction(0)
    for k in range((n + 1) // 2, n + 1):
        t = terms[step * (2 * k - n)]
        total += (-1) ** k * math.comb(n, k) * Fraction(t.fib, t.lucas - 2)
    return total / field.q ** ((n - 1) // 2)
