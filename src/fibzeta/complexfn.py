"""Complex special functions used by every continuation formula.

gamma: on the right half-plane Re z >= 1/2, Stirling's series through z^-13
(DLMF 5.11.1), taken at z + n with n >= 0 the fewest unit steps that reach
|z + n| >= 10 (at most 10), less log(z (z+1) ... (z+n-1)); the reflection
formula on the left; everything available in log form so that products of
gammas with large imaginary parts never leave double range.  Stirling's
remainder is below 3e-17 from |z| = 10 on, so the value errs by rounding
alone: against mpmath, about 7e-15 absolute for |z| < 10 and up to about
5e-13 on 10 <= |z| <= 300, the rounding of a log of size |z| log |z|.

zeta: Euler-Maclaurin for Re s >= 1/2 and in a small disk around s = 0,
and the functional equation elsewhere on the left, with its factor chi(s)
formed from its logs, since its sine and gamma factors leave double range
one by one past |Im s| = 452; past |Im s| = 14 those logs are folded into
one Stirling expression, so that their large phases cancel before rounding.
The sum takes 0.6 |s| + 6 terms and refuses with TooSlowConvergenceError
past 100,000 of them (|s| above about 1.7e5).

There is one Euler-Maclaurin tail, _euler_maclaurin_tail: a weighted sum
of Hurwitz tails sum_{m >= n} m^(s-1-2j), which zeta takes with one unit
weight and the even Poisson pair sums take for their restored orders.  Its
corrections stop at the first below the larger of 2^-53 of its leading
term and the caller's floor, at most 14; zeta passes no floor, and the
pair sum passes its share of tol.
Stirling's coefficients and the Euler-Maclaurin weights both come from the
one table of Bernoulli numbers, _BERNOULLI_EVEN, held as exact fractions.

Complex values are the builtin complex type throughout.  All functions are
pure.  Constants that meet a complex operand in a hot expression are stored
as complex: a float on the left of a complex first gets NotImplemented from
float's own operator and is then converted to complex(x, 0.0) anyway, so
the stored constant gives the same bits without that detour.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import PoleAtNonpositiveIntegerError, PoleAtOneError, TooSlowConvergenceError

_LOG_PI = math.log(math.pi)
_LOG_TWO = math.log(2.0)
_ONE = complex(1.0, 0.0)
_PI = complex(math.pi, 0.0)
_LOG_PI_C = complex(_LOG_PI, 0.0)

# B_2j for j = 1..14, exact: Stirling's coefficients and the Euler-Maclaurin
# weights are both derived from this one table
_BERNOULLI_EVEN = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
    Fraction(-23749461029, 870),
)


def _euler_maclaurin_weights() -> tuple[float, ...]:
    """B_2j / (2j)! for j = 1..14: each weight is the float that dividing the
    rounded B_2j by the running factorial 2, 24, 720, ... gives."""
    weights = []
    fact = 2.0
    for j, b2j in enumerate(_BERNOULLI_EVEN, start=1):
        weights.append(float(b2j) / fact)
        fact *= (2 * j + 1) * (2 * j + 2)
    return tuple(weights)


_EULER_MACLAURIN_WEIGHTS = _euler_maclaurin_weights()


# -1j * math.pi etc. as the inline products evaluate them, left to right
_NEG_I_PI = -1j * math.pi
_I_PI = 1j * math.pi
_LOG_HALF_I_SHIFT = complex(-_LOG_TWO, 0.5 * math.pi)
_LOG_TWO_I_SHIFT = complex(_LOG_TWO, 0.5 * math.pi)


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)), stable for large |Im z| (branch only matters mod 2 pi i).

    Past |Im z| = 7 sin(pi z) is a single exponential.  The other one would
    enter as log(1 - e^(+-2 pi i z)), below e^(-14 pi) ~ 8e-20: its real part
    is rounded away against pi |Im z| > 21, and its imaginary part, below
    2e-19 of |pi Re z|, against -pi Re z, so leaving it out changes no bit."""
    if z.imag > 7.0:
        # sin(pi z) = -e^{-i pi z} / (2i)
        return _NEG_I_PI * z + _LOG_HALF_I_SHIFT
    if z.imag < -7.0:
        return _I_PI * z - _LOG_TWO_I_SHIFT
    return cmath.log(cmath.sin(_PI * z))


_HALF_LOG_TWO_PI_C = complex(0.5 * math.log(2.0 * math.pi), 0.0)

# Stirling's series (DLMF 5.11.1): B_2k / (2k (2k - 1)) for k = 1..7, each
# rounded once from the table.  For Re z >= 1/2 its remainder is below the
# first omitted term, 0.0296 |z|^-15, which is 3e-17 at |z| = 10 (DLMF
# 5.11(ii)).
_STIRLING_MIN_ABS = 10.0
_S1, _S2, _S3, _S4, _S5, _S6, _S7 = (
    complex(float(b2k / (2 * k * (2 * k - 1))), 0.0)
    for k, b2k in enumerate(_BERNOULLI_EVEN[:7], start=1)
)


def _log_gamma_right(z: complex) -> complex:
    """log Gamma(z) for Re z >= 0.5: Stirling's series at w = z + n, with
    n >= 0 the fewest unit steps that reach |w| >= 10, less log(z (z+1) ...
    (z+n-1)), by Gamma(w) = z (z+1) ... (z+n-1) Gamma(z)."""
    w = z
    product = None
    if abs(z) < _STIRLING_MIN_ABS:
        product = z
        w = z + 1.0
        while abs(w) < _STIRLING_MIN_ABS:
            product *= w
            w += 1.0
    inv = _ONE / w
    inv2 = inv * inv
    series = (w - 0.5) * cmath.log(w) - w + _HALF_LOG_TWO_PI_C + inv * (
        _S1 + inv2 * (_S2 + inv2 * (_S3 + inv2 * (_S4 + inv2 * (_S5 + inv2 * (_S6 + inv2 * _S7)))))
    )
    if product is None:
        return series
    return series - cmath.log(product)


def log_gamma(z: complex) -> complex:
    """log Gamma(z) up to a multiple of 2 pi i; intended to be exponentiated.

    Combinations like exp(log_gamma(a) + log_gamma(b) - log_gamma(c)) are
    then exact in phase, which is how the Poisson-side formulas consume it.
    """
    z = complex(z)
    if z.real >= 0.5:
        return _log_gamma_right(z)
    return _LOG_PI_C - _log_sin_pi(z) - _log_gamma_right(_ONE - z)


def _nonpositive_integer_near(z: complex, tol: float = 1e-12) -> int | None:
    n = round(z.real)
    if n <= 0 and abs(z.real - n) <= tol and abs(z.imag) <= tol:
        return n
    return None


def cgamma(z: complex) -> complex:
    """Gamma(z); raises PoleAtNonpositiveIntegerError at its poles."""
    z = complex(z)
    pole = _nonpositive_integer_near(z)
    if pole is not None:
        raise PoleAtNonpositiveIntegerError(pole)
    return cmath.exp(log_gamma(z))


def rgamma(z: complex) -> complex:
    """1/Gamma(z): entire, zero at nonpositive integers."""
    z = complex(z)
    if z.real >= 0.5:
        return cmath.exp(-_log_gamma_right(z))
    # reflection: 1/Gamma(z) = sin(pi z) Gamma(1-z) / pi
    return cmath.sin(_PI * z) * cmath.exp(_log_gamma_right(_ONE - z) - _LOG_PI)


# the cap of the direct series (continuation._MAX_DIRECT_TERMS)
_MAX_ZETA_TERMS = 100_000


def _zeta_euler_maclaurin(s: complex) -> complex:
    """zeta(s): sum_{k < n} k^(-s) plus _euler_maclaurin_tail from n, with
    n >= 0.6 |s| + 6 as the tail needs.  An n above _MAX_ZETA_TERMS raises
    TooSlowConvergenceError before the sum starts."""
    needed = 0.6 * abs(s) + 6.0
    if needed > _MAX_ZETA_TERMS:
        raise TooSlowConvergenceError(needed, _MAX_ZETA_TERMS)
    n = int(needed) + 1
    neg_s = -s
    exp, log = cmath.exp, math.log
    acc = 0j
    for k in range(1, n):
        acc += exp(neg_s * log(k))
    return acc + _euler_maclaurin_tail(1.0 - s, n, (_ONE,))


def _euler_maclaurin_tail(
    s: complex, n: int, weights: tuple[complex, ...], floor: float = 0.0
) -> complex:
    """sum_j w_j H_j for j = 0 .. len(weights) - 1, H_j = sum_{m >= n}
    m^(s - 1 - 2j), the Hurwitz zeta(alpha_j, n) with alpha_j = 1 - s + 2j,
    by Euler-Maclaurin: n^(1 - alpha_j) / (alpha_j - 1) + n^(-alpha_j) / 2
    plus the corrections B_2i/(2i)! (alpha_j)_(2i-1) n^(1 - alpha_j - 2i),
    i <= 14, exact to rounding once n >= 0.6 |alpha_j| + 6.  Since alpha_j =
    alpha_0 + 2j, each correction is n^s T_(i+j) / R_j with T_k =
    (alpha_0)_(2k-1) n^(-2k) one shared sequence and R_j = (alpha_0)_(2j).
    Each order's corrections stop at the first whose weighted size is below
    the larger of 2^-53 of the weighted leading term of order 0 and the
    caller's floor, an absolute size in units of the result (0, the
    default, leaves the first alone).  Once n >= 0.6 |alpha_j| + 6 the
    corrections fall geometrically, so those an order leaves out are about
    the size of the last one it takes, below the floor."""
    # the orders over n^s: n^(-2j) / (alpha_j - 1) + n^(-2j-1) / 2 + sum_i
    # B_2i/(2i)! T_(i+j) / R_j each
    alpha = _ONE - s
    inv_n2 = 1.0 / (n * n)
    half_inv_n = 0.5 / n
    ts = [alpha * inv_n2]  # ts[k - 1] = T_k
    n_pow = 1.0
    r = _ONE
    tail = 0j
    log_n = math.log(n)
    if floor:
        # the floor in units of the orders, which are taken over n^s
        n_s_abs = math.exp(s.real * log_n)
        floor = floor / n_s_abs if n_s_abs else math.inf
    for j, w in enumerate(weights):
        acc = w * n_pow * (1.0 / (2 * j - s) + half_inv_n)
        if j == 0:
            floor = max(2.0**-53 * abs(acc), floor)
        scaled = w / r
        for i, b in enumerate(_EULER_MACLAURIN_WEIGHTS, start=1):
            k = i + j
            if k > len(ts):
                ts.append(ts[-1] * ((alpha + (2 * k - 3)) * (alpha + (2 * k - 2))) * inv_n2)
            term = scaled * b * ts[k - 1]
            acc += term
            if abs(term) < floor:
                break
        tail += acc
        n_pow *= inv_n2
        r *= (alpha + 2 * j) * (alpha + (2 * j + 1))
    return cmath.exp(s * log_n) * tail


# Near s = 0 the functional equation multiplies sin(pi s/2) ~ 0 by the pole
# of zeta(1 - s), and 1 - s has lost the digits of s: against mpmath its
# relative error is about 1e-16/|s| (1e-10 at |s| = 1e-6, a division by zero
# at s = 0), while Euler-Maclaurin stays below 1e-14.  The two meet at
# |s| ~ 0.02 (max over the left half of 256 points per circle: 7.7e-15 vs
# 8.0e-15; at |s| = 4e-3, 5.5e-15 vs 3.0e-14).
_NEAR_ZERO_RADIUS = 0.02


# Past |Im s| = 14, sin(pi s/2) is _log_sin_pi's single exponential and
# |1 - s| > 10 needs no unit steps in Stirling's series
_CHI_STIRLING_MIN_IMAG = 14.0
_INV_TWO_PI_E = 1.0 / (2.0 * math.pi * math.e)


def _log_chi_stirling(w: complex, t: float) -> complex:
    """log chi(s) for w = 1 - s and t = Im s, |t| > 14, from Stirling's series.

    With sin(pi s/2) a single exponential, log chi(s) = log Gamma(w) - w
    (log 2 pi -+ i pi/2), and Stirling's series for log Gamma(w) folds it to
    (w - 1/2) (log(|w| / (2 pi e)) + i sgn(t) atan(Re w / |Im w|)) - 1/2
    + i sgn(t) pi/4 plus the series' correction.  The sum of the separate
    logs rounds several terms of size |t| log |t| (about 3000 at |t| = 500)
    whose phases cancel to about |t| log(|t| / 2 pi e), and erred up to
    1.1e-12 in the phase of chi; this form rounds one product of the
    smaller size, for about 4e-13 over |t| <= 500."""
    inv = _ONE / w
    inv2 = inv * inv
    correction = inv * (
        _S1 + inv2 * (_S2 + inv2 * (_S3 + inv2 * (_S4 + inv2 * (_S5 + inv2 * (_S6 + inv2 * _S7)))))
    )
    phase = math.copysign(math.atan(w.real / abs(w.imag)), t)
    return ((w - 0.5) * complex(math.log(abs(w) * _INV_TWO_PI_E), phase)
            + complex(-0.5, math.copysign(0.25 * math.pi, t)) + correction)


def czeta(s: complex) -> complex:
    """Riemann zeta for complex s != 1."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOneError()
    if s.real >= 0.5 or abs(s) < _NEAR_ZERO_RADIUS:
        return _zeta_euler_maclaurin(s)
    # functional equation: zeta(s) = chi(s) zeta(1-s),
    # chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s), formed from its logs.
    # The sum comes first: past its cap it refuses before the logs of chi,
    # which cancel to about |Im s| 1e-16, can overflow their exp
    one_minus_s = 1.0 - s
    zeta_reflected = _zeta_euler_maclaurin(one_minus_s)
    if abs(s.imag) > _CHI_STIRLING_MIN_IMAG:
        log_chi = _log_chi_stirling(one_minus_s, s.imag)
    else:
        log_chi = (s * _LOG_TWO + (s - 1.0) * _LOG_PI + _log_sin_pi(0.5 * s)
                   + log_gamma(one_minus_s))
    return cmath.exp(log_chi) * zeta_reflected

