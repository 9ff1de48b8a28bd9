"""Poisson-summation continuations.

Odd-indexed case: the summand (eps^n + eps^-n)^(-s) is even in n, so
Poisson summation over the odd integers gives a two-sided gamma series

    Z_odd(s) = q^(s/2) / (8 Gamma(s) log eps)
               * sum_m (-1)^m Gamma(s/2 + i v_m) Gamma(s/2 - i v_m),

v_m = pi m / (2 log eps), whose terms decay like exp(-pi v_m).  The 1/Gamma(s)
prefactor forces zeros at negative odd integers.  Left of Re s = 1 both
gammas of a term reflect.  With a = s/2 and L the two log-gamma sums
log Gamma(1 - a -+ i v) (complexfn._log_gamma_right), the pair is
pi^2 e^-L / (sin^2 pi a + sinh^2 pi v), since sin pi(a + i v)
sin pi(a - i v) = sin^2 pi a + sinh^2 pi v (DLMF 4.21): one log sine
(complexfn._log_sin_pi) an evaluation, shared with the m = 0 term, and
real functions of v, no sine a pair.  The denominator has two ranges, and
is taken over a quarter of its size e^(2 pi max(|Im a|, v)), which joins L
in the one exp: for v <= |Im a| sin^2 pi a leads, past it sinh^2 pi v.  A
far pair, v_m > |Im s|/2 + 7, is one exp of log 4 pi^2 - 2 pi v_m - L, the
form past |Im a| with its denominator rounded to 1.  The terms stay near
e^(-pi |Im s|/2) in size up to the saddle v_m = |Im s|/2 and fall
geometrically only past it, by r = max(e^(-pi step), |term_m/term_(m-1)|) a
pair, step = pi / (2 log eps).  So the sum stops only past the saddle, at
the first pair whose tail |term| r / (1 - r) is within tol/8 of the sum, r
below 1, and that tail is the reported bound.

Even-indexed case: the summand vanishes at n=0 only after regularizing by
(4 x log eps)^(-s), and truncated Poisson summation yields one evaluator,
zeta_even_poisson, with two regions: the direct series for Re s >= 1/2,
and the gamma-ratio pair sum for Re s < 1/2.  The pair sum is accelerated
exactly: the ratio Gamma(z + a)/Gamma(z + 1 - a) admits an asymptotic
expansion in even powers of 1/z, which holds only past |z| ~ |s| and is a
series in |s/2|^(3/2) / |z|.  So the pairs are summed as they are, and
from m0 = ceil(max(|s| + 4, |s/2|^(3/2) / 2) / step) + 1 on the orders
z^0 .. z^-12 are subtracted from each pair only to judge where to stop:
the residual falls like m^(Re s - 15).  The orders of the pairs past the
last one summed are added through the Hurwitz tails
sum_{m > m_last} m^(s-1-2j), weighted and summed together (direct terms,
then the Euler-Maclaurin tail every order and zeta share) rather than
formed as zeta(1 + 2j - s) less its first terms; for Re s > 0 the order-0
tail diverges and is its analytic continuation.  The Euler-Maclaurin
corrections of each order stop once they fall below tol/100 of the pair
sum, or below rounding if that is larger.  The truncation is modelled as
the larger of two bounds on the last residual: residual
m / max(2, 10 - Re s), the sum of a remainder falling like m^(Re s - 11)
(an overestimate, kept because it stops no earlier than the tol asks),
and residual sqrt(m), the floor of the rounding that the noise-floor stop
lets the loop end on, plus the tol/100 each of the seven orders may leave
out.  The two ratios of a pair +-m share their
log-gamma values: since Re s < 1/2, the reflection of each numerator
Gamma(s/2 -+ i v_m) needs log Gamma(1 - s/2 +- i v_m), the other ratio's
denominator, so a pair costs two log-gamma sums, not four, and by the
same sine product it is 2 pi sin(pi a) cosh(pi v) e^-L over the odd
pair's denominator.  A far pair folds its two terms into one exp,
4 pi sin(pi s/2) exp(-pi v_m - L).  For a norm +1 unit the even-indexed
evaluator puts eps^(1/2) in place of eps and returns the full zeta.
"""

from __future__ import annotations

import cmath
import math

from .complexfn import (
    _LOG_PI_C,
    _ONE,
    _PI,
    _euler_maclaurin_tail,
    _log_gamma_right,
    _log_sin_pi,
    czeta,
    log_gamma,
    rgamma,
)
from .continuation import (
    METHOD_POISSON,
    ZetaEvaluation,
    _q_power,
    direct_terms_for,
    nearest_lattice_pole,
    zeta_direct,
)
from .errors import (
    FactorOverflowError,
    OutOfRegionError,
    PoleProximityError,
    TooSlowConvergenceError,
)
from .quadfield import QuadraticField

REGION_DIRECT = "direct"
REGION_LEFT = "left"


# the even-indexed evaluation uses the direct series for Re s >= REGION_DIRECT_MIN
# and the gamma-ratio pair sum left of it
REGION_DIRECT_MIN = 0.5
# hard cap on Fourier-side summation lengths
MAX_FOURIER_TERMS = 2_000_000
# a pair at v > |Im s/2| + _FAR_MARGIN is far: its denominator over
# e^(2 pi v) / 4 is 1 to e^(-14 pi) ~ 8e-20
_FAR_MARGIN = 7.0
_TWO_PI = 2.0 * math.pi
_LOG_FOUR_PI_SQ = math.log(4.0 * math.pi * math.pi)
# the shares of tol that the truncation of each sum may take: the odd pairs'
# geometric tail, and the Euler-Maclaurin corrections each restored order of
# the even pair sum leaves out.  The rest of tol is left to rounding, which
# next to a pole (a pair denominator near 0) takes most of it: with all of
# tol given to the odd tail, D=29, s = -3.99-1.90i (1e-5 from a pole) errs
# 2.43e-13 at tol 1e-12, past the 2.40e-13 its rounding alone may cost
_ODD_TAIL_SHARE = 1.0 / 8.0
_EVEN_ORDERS_SHARE = 1.0 / 100.0


class RegionSelector:
    """Regions of the even-indexed Poisson evaluation: left for Re s <
    REGION_DIRECT_MIN, direct from it on.  Each branch of zeta_even_poisson
    runs only in its own region, so the pair sum never meets s = 1.
    """

    @staticmethod
    def classify(s: complex) -> str:
        return REGION_LEFT if complex(s).real < REGION_DIRECT_MIN else REGION_DIRECT

    @staticmethod
    def from_settings(settings: object) -> "RegionSelector":
        # the boundaries are fixed; bench/tracing.py names each even-index
        # evaluation by its region through this call, with the argument
        # config.default_settings() returns
        return RegionSelector()


class _in_double_range:
    """Raise FactorOverflowError(factor, s) for an OverflowError in the block:
    cmath.exp and cmath.sin raise it where a factor leaves double range.
    Any other exception passes through unchanged."""

    __slots__ = ("factor", "s")

    def __init__(self, factor: str, s: complex):
        self.factor = factor
        self.s = s

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and issubclass(exc_type, OverflowError):
            raise FactorOverflowError(self.factor, self.s) from None
        return False


def _odd_reflected_pair(
    one_minus_a: complex, v: float, h: float, sin2: complex, e2h: float, far_v: float
) -> complex:
    """Gamma(a + i v) Gamma(a - i v) for Re a < 1/2, both reflected: with L =
    log Gamma(1 - a - i v) + log Gamma(1 - a + i v) it is
    pi^2 e^-L / (sin^2 pi a + sinh^2 pi v), by sin pi(a + i v) sin pi(a - i v)
    = sin^2 pi a + sinh^2 pi v (DLMF 4.21).  Numerator and denominator are
    taken times 4 e^(-2 pi M), M = max(h, v) and h = |Im a|, which goes into
    the one exp with L, so that no factor leaves double range and the
    denominator is about 1 past h:
    D = sin2 + e^(-2 pi (h - v)) t^2 for v <= h, and
    sin2 e^(-2 pi (v - h)) + t^2 past it, where sin2 = (2 sin(pi a)
    e^(-pi h))^2, e2h = e^(-2 pi h) and t = 2 sinh(pi v) e^(-pi v) =
    1 - e^(-2 pi v), each exponential formed directly.  A far pair
    (v > far_v) is exp(log 4 pi^2 - 2 pi v - L): its D is 1 to
    e^(-14 pi) ~ 8e-20."""
    iv = 1j * v
    l_minus = _log_gamma_right(one_minus_a - iv)
    l_plus = _log_gamma_right(one_minus_a + iv)
    if v > far_v:
        return cmath.exp((_LOG_FOUR_PI_SQ - _TWO_PI * v) - (l_minus + l_plus))
    if v > h:
        r2 = math.exp(_TWO_PI * (h - v))
        t = 1.0 - r2 * e2h
        return cmath.exp((_LOG_FOUR_PI_SQ - _TWO_PI * v) - (l_minus + l_plus)) / (
            sin2 * r2 + t * t
        )
    t = -math.expm1(-_TWO_PI * v)
    return cmath.exp((_LOG_FOUR_PI_SQ - _TWO_PI * h) - (l_minus + l_plus)) / (
        sin2 + math.exp(_TWO_PI * (v - h)) * (t * t)
    )


def zeta_odd_poisson(field: QuadraticField, s: complex, tol: float = 1e-12) -> ZetaEvaluation:
    """Odd-indexed zeta via the two-sided gamma series (valid on all of C).

    Whether s/2 + i v_m reflects is decided once, by log_gamma's own test on
    Re(s/2): left of it _odd_reflected_pair forms each pair from two
    log-gamma sums and the sine product, with log sin(pi s/2) taken once
    for the evaluation and the m = 0 term; right of it the two log-gamma
    sums of s/2 -+ i v_m are called directly.

    The terms fall geometrically only past the saddle v_m > |Im s|/2, m >
    |Im s| / (2 v_1); before it they stay near exp(-pi |Im s| / 2) in size,
    far below any absolute floor (the sum is 8e-54 at D=5, s = 1+80.3i), and
    a sum stopped there erred by about 100% far up the axis.  So a pair past
    the saddle, no larger than the one before it, ends the sum once its
    geometric tail |term| r / (1 - r), r = max(exp(-pi v_1),
    |term_m / term_(m-1)|) below 1, is within tol/8 (_ODD_TAIL_SHARE) of
    |total|; that tail times |prefactor| is the reported bound.  A pair
    that underflows to 0 there leaves no tail.

    At a real-axis pole s = -2k exactly (k >= 0) sin(pi s/2) is 0 and the
    m = 0 term has no value, so the route raises PoleProximityError there,
    as evaluate does; off the axis this costs one comparison.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real % 2.0 == 0.0:
        raise PoleProximityError(s, *nearest_lattice_pole(field, s))
    log_eps = field.log_eps
    half_step = math.pi / (2.0 * log_eps)
    decay = math.exp(-math.pi * half_step)  # per-unit-m asymptotic shrink factor
    half_s = 0.5 * s
    # log_gamma's own test: Re(s/2 +- i v) = Re(s/2) for every m
    reflected = not half_s.real >= 0.5
    one_minus_a = _ONE - half_s
    h = abs(half_s.imag)
    far_v = h + _FAR_MARGIN
    exp, log_gamma_right, reflected_pair = cmath.exp, _log_gamma_right, _odd_reflected_pair
    with _in_double_range("Gamma(s/2 + i v_m) Gamma(s/2 - i v_m)", s):
        if reflected:
            # log_gamma's reflection, its log sine kept for the pairs:
            # sin(pi s/2) e^(-pi h) is in double range at any height
            log_sin = _log_sin_pi(half_s)
            total = exp(2.0 * (_LOG_PI_C - log_sin - log_gamma_right(one_minus_a)))
            two_sin = 2.0 * exp(log_sin - _PI * h)
            sin2 = two_sin * two_sin
            e2h = math.exp(-_TWO_PI * h)
        else:
            total = exp(2.0 * log_gamma_right(half_s))
        m = 0
        term_abs = abs(total)
        share = _ODD_TAIL_SHARE * tol
        sign = 2.0  # 2 (-1)^m, flipped before each term
        while True:
            m += 1
            v = half_step * m
            sign = -sign
            if reflected:
                pair = reflected_pair(one_minus_a, v, h, sin2, e2h, far_v)
            else:
                iv = 1j * v
                pair = exp(log_gamma_right(half_s + iv) + log_gamma_right(half_s - iv))
            term = sign * pair
            total += term
            last_abs, term_abs = term_abs, abs(term)
            # past the saddle the terms fall geometrically, at e^(-pi step)
            # or at the last ratio if that is slower; a term that underflows
            # to 0 there leaves no tail
            if v > h and term_abs <= last_abs:
                ratio = max(decay, term_abs / last_abs) if term_abs else decay
                if ratio < 1.0 and term_abs * ratio <= share * abs(total) * (1.0 - ratio):
                    break
            if m > MAX_FOURIER_TERMS:
                raise TooSlowConvergenceError(float(m), MAX_FOURIER_TERMS)
    with _in_double_range("1/Gamma(s)", s):
        gamma_factor = rgamma(s)
    prefactor = _q_power(field, s) * gamma_factor / (8.0 * log_eps)
    tail = term_abs * ratio / (1.0 - ratio) * abs(prefactor)
    return ZetaEvaluation(prefactor * total, METHOD_POISSON, 2 * m + 1, tail, False)


def _bernoulli_b3(x: complex) -> complex:
    return x * (x * (x - 1.5) + 0.5)


def _bernoulli_b5(x: complex) -> complex:
    return x * (x * (x * (x * (x - 2.5) + 5.0 / 3.0)) - 1.0 / 6.0)


def _bernoulli_b7(x: complex) -> complex:
    x2 = x * x
    return x * (x2 * (x2 * (x * (x - 3.5) + 3.5) - 7.0 / 6.0) + 1.0 / 6.0)


def _bernoulli_b9(x: complex) -> complex:
    x2 = x * x
    return x * (x2 * (x2 * (x2 * (x * (x - 4.5) + 6.0) - 4.2) + 2.0) - 0.3)


def _bernoulli_b11(x: complex) -> complex:
    x2 = x * x
    return x * (x2 * (x2 * (x2 * (x2 * (x * (x - 5.5) + 55.0 / 6.0) - 11.0) + 11.0) - 5.5)
                + 5.0 / 6.0)


def _bernoulli_b13(x: complex) -> complex:
    x2 = x * x
    return x * (x2 * (x2 * (x2 * (x2 * (x2 * (x * (x - 6.5) + 13.0) - 143.0 / 6.0)
                                     + 286.0 / 7.0) - 42.9) + 65.0 / 3.0) - 691.0 / 210.0)


def _asymptotic_coefficients(
    a: complex,
) -> tuple[complex, complex, complex, complex, complex, complex]:
    """(e2, e4, ..., e12) of Gamma(z + a) / Gamma(z + 1 - a) = z^(2a - 1)
    (1 + e2 z^-2 + e4 z^-4 + ... + e12 z^-12 + O(z^-14)).

    The log of the ratio is (2a - 1) log z + sum_j c_2j z^(-2j) with
    c_2j = -B_(2j+1)(a) / (j (2j + 1)) (DLMF 5.11.13), and the e_2j are the
    coefficients of its exponential, by the recurrence
    e_2n = (1/n) sum_{k=1..n} d_k e_(2n-2k), e_0 = 1, with
    d_k = k c_2k = -B_(2k+1)(a) / (2k + 1)."""
    d1 = _bernoulli_b3(a) * (-1.0 / 3.0)
    d2 = _bernoulli_b5(a) * -0.2
    d3 = _bernoulli_b7(a) * (-1.0 / 7.0)
    d4 = _bernoulli_b9(a) * (-1.0 / 9.0)
    d5 = _bernoulli_b11(a) * (-1.0 / 11.0)
    d6 = _bernoulli_b13(a) * (-1.0 / 13.0)
    e2 = d1
    e4 = (d1 * e2 + d2) * 0.5
    e6 = (d1 * e4 + d2 * e2 + d3) * (1.0 / 3.0)
    e8 = (d1 * e6 + d2 * e4 + d3 * e2 + d4) * 0.25
    e10 = (d1 * e8 + d2 * e6 + d3 * e4 + d4 * e2 + d5) * 0.2
    e12 = (d1 * e10 + d2 * e8 + d3 * e6 + d4 * e4 + d5 * e2 + d6) * (1.0 / 6.0)
    return e2, e4, e6, e8, e10, e12


def _restored_orders(
    s: complex,
    m0: int,
    weights: tuple[complex, complex, complex, complex, complex, complex, complex],
    floor: float = 0.0,
) -> complex:
    """sum_j w_j H_j for j = 0 .. 6, weights = (w_0, .., w_6), and H_j =
    sum_{m >= m0} m^(s - 1 - 2j), the Hurwitz zeta(alpha_j, m0) with
    alpha_j = 1 - s + 2j.

    The terms from m0 up to n = max(m0, 0.6 (|s| + 13) + 6) are summed
    directly, one exp and one Horner over the weights in m^-2 per m.  From
    n on complexfn's one Euler-Maclaurin tail serves every order, since n is
    at least 0.6 |alpha_j| + 6 for each of them; its corrections stop at
    floor, an absolute size of the result, if that is above rounding."""
    n = max(m0, int(0.6 * (abs(s) + 13.0)) + 6)
    w0, w1, w2, w3, w4, w5, w6 = weights
    exp, log = cmath.exp, math.log
    s_1 = s - 1.0
    direct = 0j
    for m in range(m0, n):
        x = 1.0 / (m * m)
        direct += exp(s_1 * log(m)) * (
            w0 + x * (w1 + x * (w2 + x * (w3 + x * (w4 + x * (w5 + x * w6)))))
        )
    return direct + _euler_maclaurin_tail(s, n, weights, floor)


def _even_pair(
    one_minus_a: complex, v: float, h: float, sin2: complex, e2h: float, far_v: float,
    four_pi_sin_h: complex, four_pi_sin: complex,
) -> complex:
    """ratio(m) + ratio(-m), ratio(+-m) = Gamma(a -+ i v) / Gamma(1 - a -+ i v),
    for Re a < 1/2.  Both numerators reflect, each needing the other ratio's
    denominator, so with L the sum of the two log Gamma(1 - a -+ i v) the
    pair is 2 pi sin(pi a) cosh(pi v) e^-L / (sin^2 pi a + sinh^2 pi v): the
    denominator of _odd_reflected_pair, taken as there times
    4 e^(-2 pi M).  The numerator's growth e^(pi (h + v)) less e^(2 pi M) is
    e^(-pi |v - h|), which goes into the one exp with L; four_pi_sin_h is
    4 pi sin(pi a) e^(-pi h), sin2 and e2h are as there, and
    2 cosh(pi v) e^(-pi v) = 1 + e^(-2 pi v).  A far pair (v > far_v) is
    four_pi_sin exp(-pi v - L), four_pi_sin = 4 pi sin(pi a), to
    e^(-14 pi) ~ 8e-20."""
    iv = 1j * v
    l_minus = _log_gamma_right(one_minus_a - iv)
    l_plus = _log_gamma_right(one_minus_a + iv)
    if v > far_v:
        return four_pi_sin * cmath.exp(-math.pi * v - (l_minus + l_plus))
    if v > h:
        r2 = math.exp(_TWO_PI * (h - v))
        x2 = r2 * e2h  # e^(-2 pi v)
        t = 1.0 - x2
        return four_pi_sin_h * (1.0 + x2) * cmath.exp(
            math.pi * (h - v) - (l_minus + l_plus)
        ) / (sin2 * r2 + t * t)
    x2_1 = math.expm1(-_TWO_PI * v)  # e^(-2 pi v) - 1
    return four_pi_sin_h * (2.0 + x2_1) * cmath.exp(math.pi * (v - h) - (l_minus + l_plus)) / (
        sin2 + math.exp(_TWO_PI * (v - h)) * (x2_1 * x2_1)
    )


def _first_subtracted_pair(s: complex, half_step: float) -> int:
    """m0 = ceil(max(|s| + 4, |s/2|^(3/2) / 2) / step) + 1: past the saddle
    v ~ |s|, and, since the expansion is a series in |s/2|^(3/2) / v, far
    enough out that its orders are small at v_m0 (the larger term from
    |s| ~ 40 on)."""
    abs_s = abs(s)
    reach = 0.25 * abs_s * math.sqrt(0.5 * abs_s)
    if reach < abs_s + 4.0:
        reach = abs_s + 4.0
    return int(math.ceil(reach / half_step)) + 1


def _even_left(field: QuadraticField, s: complex, tol: float = 1e-12) -> ZetaEvaluation:
    """The left branch of zeta_even_poisson, for Re s < REGION_DIRECT_MIN;
    any other point raises OutOfRegionError.  The gamma-ratio pair sum

    Z_even(s) = q^(s/2) Gamma(1-s) / (4 log eps) * sum_m ratio(m),
    ratio(m) = Gamma(s/2 - i v_m) / Gamma(1 - s/2 - i v_m),

    with its asymptotics summed exactly.  Writes ratio(+-m) = (-+ i
    v_m)^(s-1) E(-+ i v_m) with E an even asymptotic series in 1/v_m.  The
    expansion holds only past the saddle v_m ~ |s| and is a series in
    |s/2|^(3/2) / v_m, so the pairs with m < m0 (_first_subtracted_pair)
    are summed as they are; from m0 on, orders z^0 .. z^-12 are subtracted
    from every pair as well, which leaves a residual falling like
    m^(Re s - 15) that decides where the sum stops, and the orders of the
    pairs past the last one, m_last, are added by _restored_orders as
    sum_j w_j H_j over the Hurwitz tails H_j = sum_{m > m_last} m^(s-1-2j).
    The tail is the larger of residual m / max(2, 10 - Re s), the sum of a
    remainder falling like m^(Re s - 11) and so an overestimate here, and
    residual sqrt(m); a noise-floor stop ends the loop where the residual
    sinks below the rounding error of the pair terms.

    Since Re s < 1/2, both numerators Gamma(a -+ i v) of a pair (a = s/2)
    reflect, each needing log Gamma(1 - a +- i v), the other ratio's
    denominator.  _even_pair forms a near pair from these two log-gammas and
    the sine product, with log sin(pi a) taken once for the evaluation, and
    a far one (v > |Im a| + 7) in closed form.  The m = 0 term
    Gamma(a) / Gamma(1 - a) is pi / (sin(pi a) Gamma(1 - a)^2), from the
    same log sin(pi a) and one log Gamma(1 - a).  At s = -2k exactly that
    sine is 0, and the branch raises PoleProximityError, as zeta_odd_poisson
    does.
    """
    s = complex(s)
    if not s.real < REGION_DIRECT_MIN:
        raise OutOfRegionError(f"the pair sum needs Re s < {REGION_DIRECT_MIN}, got {s.real}")
    if s.imag == 0.0 and s.real % 2.0 == 0.0:
        # Re s < 1/2 already, so s is -2k with k >= 0
        raise PoleProximityError(s, *nearest_lattice_pole(field, s))
    log_eta = field.half_unit.log_eta
    with _in_double_range("Gamma(1 - s)", s):
        gamma_1ms = cmath.exp(log_gamma(1.0 - s))
    pref = _q_power(field, s) * gamma_1ms / (4.0 * log_eta)
    tol_abs = tol / max(abs(pref), 1e-30)
    # sin(pi s/2) leaves double range past |Im s| ~ 452, 4 pi sin(pi s/2) a
    # little before; every far pair is a multiple of the latter, so where it
    # is not finite the pairs would sum inf or NaN up to the pair cap
    with _in_double_range("sin(pi s/2)", s):
        two_sin_half = 2.0 * cmath.sin(0.5 * math.pi * s)
    four_pi_sin = _TWO_PI * two_sin_half
    if not cmath.isfinite(four_pi_sin):
        raise FactorOverflowError("4 pi sin(pi s/2)", s)
    half_step = math.pi / (2.0 * log_eta)
    a = 0.5 * s
    e2, e4, e6, e8, e10, e12 = _asymptotic_coefficients(a)
    m0 = _first_subtracted_pair(s, half_step)

    one_minus_a = _ONE - a
    exp, log, pair_at = cmath.exp, math.log, _even_pair
    s_1 = s - 1.0
    h = abs(a.imag)
    log_sin = _log_sin_pi(a)
    total = _PI * exp(-log_sin - 2.0 * _log_gamma_right(one_minus_a))
    two_sin = 2.0 * exp(log_sin - _PI * h)
    e2h = math.exp(-_TWO_PI * h)
    sin2 = two_sin * two_sin
    four_pi_sin_h = _TWO_PI * two_sin
    far_v = h + _FAR_MARGIN
    for m in range(1, m0):
        v = half_step * m
        total += pair_at(one_minus_a, v, h, sin2, e2h, far_v, four_pi_sin_h, four_pi_sin)

    # the pairs from m0 on, stopped by a tail model or the noise floor on
    # their residuals after the asymptotic orders
    m = m0 - 1
    residual_abs = 0.0
    tail_factor = 1.0 / max(2.0, 10.0 - s.real)
    while True:
        m += 1
        v = half_step * m
        pair = pair_at(one_minus_a, v, h, sin2, e2h, far_v, four_pi_sin_h, four_pi_sin)
        w = -1.0 / (v * v)
        asym = two_sin_half * exp(s_1 * log(v)) * (
            _ONE + w * (e2 + w * (e4 + w * (e6 + w * (e8 + w * (e10 + w * e12)))))
        )
        total += pair
        residual_abs = abs(pair - asym)
        # the gamma ratio is exponentiated from log differences of size
        # ~ pi v, so its rounding error (the noise floor) scales with v
        if (
            residual_abs * m * tail_factor <= tol_abs
            or residual_abs <= 2.3e-16 * (6.0 + 3.2 * v) * (abs(pair) + abs(asym))
        ):
            break
        if m > MAX_FOURIER_TERMS:
            raise TooSlowConvergenceError(float(m), MAX_FOURIER_TERMS)

    # the orders of the pairs past m: 2 sin(pi s/2) step^(s-1) sum_j (-1)^j
    # e_2j step^(-2j) H_j, the Hurwitz tails from m + 1, whose corrections
    # stop at their share of tol
    q = -1.0 / (half_step * half_step)
    q2 = q * q
    q3 = q2 * q
    weights = (_ONE, e2 * q, e4 * q2, e6 * q3, e8 * (q2 * q2), e10 * (q2 * q3), e12 * (q3 * q3))
    scale = two_sin_half * exp(s_1 * log(half_step))
    orders_left = _EVEN_ORDERS_SHARE * tol * abs(total)
    total += scale * _restored_orders(s, m + 1, weights, orders_left / abs(scale))
    # each order leaves out less than orders_left
    tail = (max(residual_abs * m * tail_factor, residual_abs * math.sqrt(m))
            + len(weights) * orders_left)
    return ZetaEvaluation(pref * total, METHOD_POISSON, 2 * m + 1, tail * abs(pref), False)


# _even_left under the name of the strip form it replaced, which bench/tracing.py hooks
zeta_even_poisson_strip = _even_left


def zeta_even_poisson(field: QuadraticField, s: complex, tol: float = 1e-12) -> ZetaEvaluation:
    """Even-indexed zeta via truncated Poisson summation, region-dispatched
    (for a norm +1 unit, the full zeta: see HalfUnit)."""
    s = complex(s)
    region = RegionSelector.classify(s)
    if region == REGION_DIRECT:
        parity = field.half_unit.direct_parity
        ev = zeta_direct(field, s, parity, direct_terms_for(field, s, tol, parity))
        return ZetaEvaluation(ev.value, METHOD_POISSON, ev.terms_used, ev.tail_bound,
                              ev.tail_rigorous)
    return _even_left(field, s, tol)


def zeta_functional_reconstruction(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-10,
) -> tuple[complex, complex, int]:
    """czeta's left branch against the reflected Dirichlet sum.

    For Re s < 0 the Dirichlet series of zeta(1 - s) converges, and the
    functional equation zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s)
    zeta(1-s) gives zeta(s) from its partial sums alone; czeta takes the
    same equation there but sums zeta(1 - s) by Euler-Maclaurin.  Both are
    scaled by -q^(s/2) / (4 log eps)^s.  Returns (reconstructed, reference,
    terms): the partial sum with its prefactors, and -q^(s/2)
    czeta(s) / (4 log eps)^s.
    """
    s = complex(s)
    if s.real >= 0:
        raise OutOfRegionError(f"needs Re s < 0, got {s.real}")
    abs_x = abs(s.real)
    s_minus_1 = s - 1.0
    log_eps = field.log_eps
    gamma_1ms = cmath.exp(log_gamma(1.0 - s))
    phase_pair = cmath.exp(0.5j * math.pi * (1.0 - s)) + cmath.exp(-0.5j * math.pi * (1.0 - s))
    coeff = (
        -_q_power(field, s)
        * gamma_1ms
        * phase_pair
        * cmath.exp(s_minus_1 * math.log(2.0 * math.pi))
        * cmath.exp(-s * math.log(4.0 * log_eps))
    )
    target = tol / max(abs(coeff), 1e-30)
    partial = 0j
    m = 0
    while True:
        m += 1
        term = cmath.exp(s_minus_1 * math.log(m))
        partial += term
        if m >= 8 and abs(term) * m / abs_x <= target:
            break
        if m > MAX_FOURIER_TERMS:
            raise TooSlowConvergenceError(float(m), MAX_FOURIER_TERMS)
    reconstructed = coeff * partial
    reference = -_q_power(field, s) * czeta(s) * cmath.exp(-s * math.log(4.0 * log_eps))
    return reconstructed, reference, m
