"""Complex special functions used by every continuation formula.

gamma: Lanczos approximation (g = 607/128, 15 coefficients) on the right
half-plane, reflection formula on the left, everything available in log
form so that products of gammas with large imaginary parts never leave
double range.

zeta: Borwein's accelerated alternating series for Re s >= 1/2, switching
to Euler-Maclaurin near the zeros of (1 - 2^(1-s)) where the alternating
form loses digits, and the functional equation for Re s < 1/2 except in a
small disk around s = 0, where Euler-Maclaurin is used directly.  Above
|Im s| = 450 the functional-equation factor is summed in log form, since
its sine and gamma factors leave double range there one by one.

Complex values are the builtin complex type throughout.  All functions are
pure.  Constants that meet a complex operand in a hot expression are stored
as complex: a float on the left of a complex first gets NotImplemented from
float's own operator and is then converted to complex(x, 0.0) anyway, so
the stored constant gives the same bits without that detour.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import PoleAtNonpositiveIntegerError, PoleAtOneError

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LOG_TWO = math.log(2.0)
_ONE = complex(1.0, 0.0)
_PI = complex(math.pi, 0.0)
_LOG_PI_C = complex(_LOG_PI, 0.0)

# B_{2j} for j = 1..14, used by the Euler-Maclaurin zeta tail
_BERNOULLI_EVEN = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
    -174611.0 / 330,
    854513.0 / 138,
    -236364091.0 / 2730,
    8553103.0 / 6,
    -23749461029.0 / 870,
)


# -1j * math.pi etc. as the inline products evaluate them, left to right
_NEG_I_PI = -1j * math.pi
_TWO_I_PI = 2j * math.pi
_I_PI = 1j * math.pi
_NEG_TWO_I_PI = -2j * math.pi
_LOG_HALF_I_SHIFT = complex(-_LOG_TWO, 0.5 * math.pi)
_LOG_TWO_I_SHIFT = complex(_LOG_TWO, 0.5 * math.pi)


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)), stable for large |Im z| (branch only matters mod 2 pi i)."""
    if z.imag > 7.0:
        # sin(pi z) = -e^{-i pi z} (1 - e^{2 i pi z}) / (2i)
        return _NEG_I_PI * z + cmath.log(_ONE - cmath.exp(_TWO_I_PI * z)) + _LOG_HALF_I_SHIFT
    if z.imag < -7.0:
        return _I_PI * z + cmath.log(_ONE - cmath.exp(_NEG_TWO_I_PI * z)) - _LOG_TWO_I_SHIFT
    return cmath.log(cmath.sin(_PI * z))


(
    _C0, _C1, _C2, _C3, _C4, _C5, _C6, _C7,
    _C8, _C9, _C10, _C11, _C12, _C13, _C14,
) = (complex(c, 0.0) for c in _LANCZOS_COEFFS)
_HALF_LOG_TWO_PI_C = complex(_HALF_LOG_TWO_PI, 0.0)


def _log_gamma_right(z: complex) -> complex:
    """Lanczos log-gamma, valid for Re z >= 0.5."""
    zz = z - 1.0
    # c0 + sum_k c_k / (zz + k), summed left to right: the order fixes the last bit
    acc = (
        _C0 + _C1 / (zz + 1.0) + _C2 / (zz + 2.0) + _C3 / (zz + 3.0) + _C4 / (zz + 4.0)
        + _C5 / (zz + 5.0) + _C6 / (zz + 6.0) + _C7 / (zz + 7.0) + _C8 / (zz + 8.0)
        + _C9 / (zz + 9.0) + _C10 / (zz + 10.0) + _C11 / (zz + 11.0) + _C12 / (zz + 12.0)
        + _C13 / (zz + 13.0) + _C14 / (zz + 14.0)
    )
    t = zz + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI_C + (zz + 0.5) * cmath.log(t) - t + cmath.log(acc)


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


def _borwein_d(n: int) -> tuple[tuple[int, ...], int]:
    """Exact integer coefficients d_k of Borwein's algorithm 2."""
    d = []
    acc = 0
    for j in range(n + 1):
        acc += (
            n
            * math.factorial(n + j - 1)
            * 4**j
            // (math.factorial(n - j) * math.factorial(2 * j))
        )
        d.append(acc)
    return tuple(d), d[-1]


@lru_cache(maxsize=32)
def _borwein_table(n: int) -> tuple[tuple[tuple[complex, float], ...], complex]:
    """Pairs ((-1)^k (d_k - d_n), log(k + 1)) for k < n, and d_n, each rounded
    once to the complex value that the big integer becomes in the sum."""
    d, dn = _borwein_d(n)
    pairs = tuple(
        (complex(float((-1) ** k * (d[k] - dn)), 0.0), math.log(k + 1)) for k in range(n)
    )
    return pairs, complex(float(dn), 0.0)


def _zeta_borwein(s: complex, terms: int) -> complex:
    pairs, dn = _borwein_table(terms)
    neg_s = -s
    acc = 0j
    for weight, log_k1 in pairs:
        acc += weight * cmath.exp(neg_s * log_k1)
    eta_factor = _ONE - cmath.exp((_ONE - s) * _LOG_TWO)
    return -acc / (dn * eta_factor)


def _zeta_euler_maclaurin(s: complex) -> complex:
    n_cut = max(18, int(1.3 * abs(s.imag)) + 12)
    acc = 0j
    for k in range(1, n_cut):
        acc += cmath.exp(-s * math.log(k))
    log_n = math.log(n_cut)
    acc += cmath.exp((1.0 - s) * log_n) / (s - 1.0)
    acc += 0.5 * cmath.exp(-s * log_n)
    # tail: sum_j B_2j/(2j)! * s(s+1)...(s+2j-2) * n^(-s-2j+1)
    poch = s  # rising product s (s+1) ... (s + 2j - 2)
    fact = 2.0
    power = cmath.exp((-s - 1.0) * log_n)
    n_inv2 = 1.0 / (n_cut * n_cut)
    for j, b2j in enumerate(_BERNOULLI_EVEN, start=1):
        acc += (b2j / fact) * poch * power
        poch *= (s + (2 * j - 1)) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        power *= n_inv2
    return acc


# Near s = 0 the functional equation multiplies sin(pi s/2) ~ 0 by the pole
# of zeta(1 - s), and 1 - s has lost the digits of s: against mpmath its
# relative error is about 1e-16/|s| (1e-10 at |s| = 1e-6, a division by zero
# at s = 0), while Euler-Maclaurin stays near 3e-14.  The two meet at
# |s| ~ 4e-3 (max over 256 points per circle: 2.8e-14 vs 2.7e-14).
_NEAR_ZERO_RADIUS = 4e-3

# Past |Im s| = 452.3 sin(pi s/2) ~ e^(pi |Im s|/2) / 2 leaves double range
# and Gamma(1 - s) nears underflow, while chi(s) = zeta(s) / zeta(1 - s)
# stays near (|Im s| / 2 pi)^(1/2 - Re s); above this |Im s| chi is formed
# from its logs.  Against mpmath both forms err by at most 1e-12 relative on
# 400 < |Im s| < 452, so the product form keeps its bits up to the switch.
_CHI_LOG_FORM_IM = 450.0


def czeta(s: complex) -> complex:
    """Riemann zeta for complex s != 1."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOneError()
    if s.real >= 0.5:
        return _zeta_right(s)
    if abs(s) < _NEAR_ZERO_RADIUS:
        return _zeta_euler_maclaurin(s)
    # functional equation: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    if abs(s.imag) > _CHI_LOG_FORM_IM:
        chi = cmath.exp(s * _LOG_TWO + (s - 1.0) * _LOG_PI + _log_sin_pi(0.5 * s)
                        + log_gamma(1.0 - s))
    else:
        chi = (
            cmath.exp(s * math.log(2.0) + (s - 1.0) * _LOG_PI)
            * cmath.sin(0.5 * math.pi * s)
            * cmath.exp(log_gamma(1.0 - s))
        )
    return chi * _zeta_right(1.0 - s)


def _zeta_right(s: complex) -> complex:
    t = abs(s.imag)
    if t > 90.0:
        return _zeta_euler_maclaurin(s)
    eta_factor = 1.0 - cmath.exp((1.0 - s) * math.log(2.0))
    if abs(eta_factor) < 0.05:
        return _zeta_euler_maclaurin(s)
    terms = 24 + int(0.75 * t)
    terms = ((terms + 7) // 8) * 8  # quantize for coefficient-cache reuse
    return _zeta_borwein(s, terms)
