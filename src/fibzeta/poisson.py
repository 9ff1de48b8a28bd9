"""Poisson-summation continuations.

Odd-indexed case: the summand (eps^n + eps^-n)^(-s) is even in n, so
Poisson summation over the odd integers gives a two-sided gamma series

    Z_odd(s) = q^(s/2) / (8 Gamma(s) log eps)
               * sum_m (-1)^m Gamma(s/2 + i v_m) Gamma(s/2 - i v_m),

v_m = pi m / (2 log eps), whose terms decay like exp(-pi v_m).  The 1/Gamma(s)
prefactor forces zeros at negative odd integers.  Left of Re s = 1 both
gammas of a term reflect, and one complexfn._reflection_logs call gives the
two sines and two Lanczos sums that the pair needs.

Even-indexed case: the summand vanishes at n=0 only after regularizing by
(4 x log eps)^(-s), and truncated Poisson summation yields one evaluator,
zeta_even_poisson, with three regions: the direct series for Re s >= 1/2;
for -1/4 < Re s < 1/2 a strip form built from zeta(s), a closed-form
constant phase, and bracketed gamma-ratio terms; and for Re s <= -1/4 the
bare gamma-ratio sum.  The gamma-ratio sums are accelerated exactly: the
ratio Gamma(z + a)/Gamma(z + 1 - a) admits an asymptotic expansion in even
powers of 1/z whose term-by-term m-sums are Riemann zeta values, so
subtracting two correction orders leaves a remainder falling like
m^(Re s - 7).  The two ratios of a pair +-m share their Lanczos values:
since Re s < 1/2 in both regions that sum them, the reflection of each
numerator Gamma(s/2 -+ i v_m) needs log Gamma(1 - s/2 +- i v_m), the other
ratio's denominator, so a pair costs two Lanczos sums, not four, and both
come with the two sines from one complexfn._reflection_logs call.  For a
norm +1 unit the even-indexed evaluator puts eps^(1/2) in place of eps and
returns the full zeta.
"""

from __future__ import annotations

import cmath
import math

from .complexfn import (
    _LOG_PI_C,
    _ONE,
    _log_gamma_right,
    _reflection_logs,
    czeta,
    log_gamma,
    rgamma,
)
from .config import Settings
from .continuation import (
    METHOD_POISSON,
    SeriesTail,
    ZetaEvaluation,
    _q_power,
    direct_terms_for,
    zeta_direct,
)
from .errors import FactorOverflowError, OutOfRegionError, TooSlowConvergenceError
from .quadfield import QuadraticField

REGION_DIRECT = "direct"
REGION_STRIP = "strip"
REGION_LEFT = "left"


# the even-indexed evaluation uses the direct series for Re s >= REGION_DIRECT_MIN,
# the bare gamma-ratio sum for Re s <= REGION_LEFT_MAX and the strip form between
REGION_DIRECT_MIN = 0.5
REGION_LEFT_MAX = -0.25
# hard cap on Fourier-side summation lengths
MAX_FOURIER_TERMS = 2_000_000


class RegionSelector:
    """Regions of the even-indexed Poisson evaluation: left for Re s <=
    REGION_LEFT_MAX, strip for REGION_LEFT_MAX < Re s < REGION_DIRECT_MIN,
    direct for Re s >= REGION_DIRECT_MIN.  Each branch of zeta_even_poisson
    runs only in its own region, so no point of the strip is near s = 1.
    """

    @staticmethod
    def classify(s: complex) -> str:
        x = complex(s).real
        if x <= REGION_LEFT_MAX:
            return REGION_LEFT
        if x < REGION_DIRECT_MIN:
            return REGION_STRIP
        return REGION_DIRECT

    @staticmethod
    def from_settings(settings: Settings) -> "RegionSelector":
        # the boundaries are fixed; bench/tracing.py names each even-index
        # evaluation by its region through this call
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


def zeta_odd_poisson(field: QuadraticField, s: complex, tol: float = 1e-12) -> ZetaEvaluation:
    """Odd-indexed zeta via the two-sided gamma series (valid on all of C).

    Whether s/2 + i v_m reflects is decided once, by log_gamma's own test on
    Re(s/2): left of it a pair's four logs come from one _reflection_logs
    call, combined as the two reflected log_gamma values would be, and right
    of it the two Lanczos sums are called directly.  The tail estimate
    term * decay / (1 - decay), decay = exp(-pi v_1), models the geometric
    fall of the terms, which holds only past the saddle, m > |Im s| / (2 v_1);
    before it the terms stay near exp(-pi |Im s| / 2) in size.
    """
    s = complex(s)
    log_eps = field.log_eps
    half_step = math.pi / (2.0 * log_eps)
    decay = math.exp(-math.pi * half_step)  # per-unit-m asymptotic shrink factor
    half_s = 0.5 * s
    # log_gamma's own test: Re(s/2 +- i v) = Re(s/2) for every m
    reflected = not half_s.real >= 0.5
    one_minus_a = _ONE - half_s
    exp, kernel, lanczos = cmath.exp, _reflection_logs, _log_gamma_right
    with _in_double_range("Gamma(s/2 + i v_m) Gamma(s/2 - i v_m)", s):
        total = exp(2.0 * log_gamma(half_s))
        m = 0
        term_abs = abs(total)
        sign = 2.0  # 2 (-1)^m, flipped before each term
        while True:
            m += 1
            iv = 1j * (half_step * m)
            sign = -sign
            if reflected:
                # log_gamma(s/2 +- i v) = log pi - log sin pi(s/2 +- i v)
                # - log Gamma(1 - s/2 -+ i v), its reflection, summed in order
                s_minus, s_plus, l_minus, l_plus = kernel(half_s, one_minus_a, iv)
                pair = exp((_LOG_PI_C - s_plus - l_minus) + (_LOG_PI_C - s_minus - l_plus))
            else:
                pair = exp(lanczos(half_s + iv) + lanczos(half_s - iv))
            term = sign * pair
            total += term
            term_abs = abs(term)
            if m >= 3 and term_abs <= tol * max(abs(total), 1e-30):
                break
            if m > MAX_FOURIER_TERMS:
                raise TooSlowConvergenceError(float(m), MAX_FOURIER_TERMS)
    with _in_double_range("1/Gamma(s)", s):
        gamma_factor = rgamma(s)
    prefactor = _q_power(field, s) * gamma_factor / (8.0 * log_eps)
    tail = term_abs * decay / (1.0 - decay) * abs(prefactor)
    return ZetaEvaluation(prefactor * total, METHOD_POISSON, 2 * m + 1, SeriesTail(tail, False))


def _bernoulli_b3(x: complex) -> complex:
    return x * (x * (x - 1.5) + 0.5)


def _bernoulli_b5(x: complex) -> complex:
    return x * (x * (x * (x * (x - 2.5) + 5.0 / 3.0)) - 1.0 / 6.0)


def _gamma_ratio(s: complex, w: float) -> complex:
    """Gamma(s/2 - i w) / Gamma(1 - s/2 - i w), in log space."""
    return cmath.exp(log_gamma(0.5 * s - 1j * w) - log_gamma(1.0 - 0.5 * s - 1j * w))


def _ratio_pair_core(
    log_eta: float,
    s: complex,
    tol_abs: float,
    include_leading: bool,
) -> tuple[complex, int, float]:
    """sum over m in Z of the gamma-ratio terms, asymptotics summed exactly.

    Writes ratio(+-m) = (-+ i v_m)^(s-1) E(-+ i v_m) with E an even
    asymptotic series, subtracts orders 0/2/4 from every pair, and restores
    them through zeta(1-s), zeta(3-s), zeta(5-s).  With include_leading=False
    the order-0 part is left out entirely (the strip form carries it as its
    explicit zeta(s) term).  Returns (sum, pairs_used, tail_estimate).

    Both callers have Re s < 1/2, so both numerators Gamma(a -+ i v) of a
    pair (a = s/2) lie left of Re 1/2 and the reflection of each needs
    log Gamma(1 - a +- i v), the other ratio's denominator: one
    _reflection_logs call gives a pair's four logs, and the pair is
    combined in _gamma_ratio's order, so it is the float that
    _gamma_ratio(s, v) + _gamma_ratio(s, -v) gives.
    """
    half_step = math.pi / (2.0 * log_eta)
    a = 0.5 * s
    e2 = -_bernoulli_b3(a) / 3.0
    e4 = -_bernoulli_b5(a) / 10.0 + _bernoulli_b3(a) ** 2 / 18.0
    with _in_double_range("sin(pi s/2)", s):
        sin_half = cmath.sin(0.5 * math.pi * s)

    total = _gamma_ratio(s, 0.0)
    # closed-form asymptotic sums: 2 sin(pi s/2) (-1)^j e_2j step^(s-1-2j) zeta(1+2j-s)
    orders = ((1, e2), (2, e4))
    if include_leading:
        orders = ((0, 1.0 + 0j),) + orders
    for j, coeff in orders:
        total += (
            2.0
            * sin_half
            * ((-1) ** j)
            * coeff
            * cmath.exp((s - 1.0 - 2 * j) * math.log(half_step))
            * czeta(1.0 + 2 * j - s)
        )

    # residual pair sum; the asymptotic orders are always subtracted so the
    # remainder falls like m^(Re s - 7).  A noise-floor stop covers points
    # where the target sits below the rounding error of the pair terms.
    m_min = int(math.ceil((abs(s) + 8.0) / half_step)) + 2
    m = 0
    residual_abs = 0.0
    tail_factor = 1.0 / max(2.0, 6.0 - s.real)
    # loop invariants, each the value its inline expression had
    two_sin_half = 2.0 * sin_half
    s_1, s_3, s_5 = s - 1.0, s - 3.0, s - 5.0
    one_minus_a = _ONE - a
    exp, log, kernel = cmath.exp, math.log, _reflection_logs
    while True:
        m += 1
        v = half_step * m
        s_minus, s_plus, l_minus, l_plus = kernel(a, one_minus_a, 1j * v)
        pair = exp((_LOG_PI_C - s_minus - l_plus) - l_minus) + exp(
            (_LOG_PI_C - s_plus - l_minus) - l_plus
        )
        log_v = log(v)
        asym = two_sin_half * (exp(s_1 * log_v) - e2 * exp(s_3 * log_v) + e4 * exp(s_5 * log_v))
        residual = pair - asym
        total += residual
        residual_abs = abs(residual)
        # the gamma ratio is exponentiated from log differences of size
        # ~ pi v, so its rounding error (the noise floor) scales with v
        if m >= m_min and (
            residual_abs * m * tail_factor <= tol_abs
            or residual_abs <= 2.3e-16 * (6.0 + 3.2 * v) * (abs(pair) + abs(asym))
        ):
            break
        if m > MAX_FOURIER_TERMS:
            raise TooSlowConvergenceError(float(m), MAX_FOURIER_TERMS)
    tail = max(residual_abs * m * tail_factor, residual_abs * math.sqrt(m))
    return total, m, tail


def _even_prefactor(field: QuadraticField, log_eta: float, s: complex) -> complex:
    with _in_double_range("Gamma(1 - s)", s):
        gamma_1ms = cmath.exp(log_gamma(1.0 - s))
    return _q_power(field, s) * gamma_1ms / (4.0 * log_eta)


def zeta_even_poisson_strip(
    field: QuadraticField, s: complex, tol: float = 1e-12
) -> ZetaEvaluation:
    """The strip branch of zeta_even_poisson, for REGION_LEFT_MAX < Re s <
    REGION_DIRECT_MIN; any other point raises OutOfRegionError.

    Z_even(s) = q^(s/2) zeta(s) / (4 log eps)^s
              + q^(s/2) Gamma(1-s) Gamma(s/2) / (4 Gamma(1-s/2) log eps)
              + q^(s/2) sum_{m != 0} [gamma-ratio term - |m|^(s-1) phase term].
    """
    s = complex(s)
    if RegionSelector.classify(s) != REGION_STRIP:
        raise OutOfRegionError(
            f"strip form needs {REGION_LEFT_MAX} < Re s < {REGION_DIRECT_MIN}, got {s.real}"
        )
    log_eta = field.half_unit.log_eta
    scale = _q_power(field, s)
    with _in_double_range("zeta(s)", s):
        zeta_s = czeta(s)
    zeta_term = scale * zeta_s * cmath.exp(-s * math.log(4.0 * log_eta))
    pref = _even_prefactor(field, log_eta, s)
    tol_abs = tol * max(abs(zeta_term), 1.0) / max(abs(pref), 1e-30)
    core, pairs, tail = _ratio_pair_core(log_eta, s, tol_abs, include_leading=False)
    return ZetaEvaluation(zeta_term + pref * core, METHOD_POISSON, 2 * pairs + 1,
                          SeriesTail(tail * abs(pref), False))


def _even_left(field: QuadraticField, s: complex, tol: float) -> ZetaEvaluation:
    """The left branch of zeta_even_poisson, for Re s <= REGION_LEFT_MAX:
    the bare gamma-ratio sum

    Z_even(s) = q^(s/2) Gamma(1-s) / (4 log eps) * sum_m ratio(m).
    """
    log_eta = field.half_unit.log_eta
    pref = _even_prefactor(field, log_eta, s)
    tol_abs = tol / max(abs(pref), 1e-30)
    core, pairs, tail = _ratio_pair_core(log_eta, s, tol_abs, include_leading=True)
    return ZetaEvaluation(pref * core, METHOD_POISSON, 2 * pairs + 1,
                          SeriesTail(tail * abs(pref), False))


def zeta_even_poisson(field: QuadraticField, s: complex, tol: float = 1e-12) -> ZetaEvaluation:
    """Even-indexed zeta via truncated Poisson summation, region-dispatched
    (for a norm +1 unit, the full zeta: see HalfUnit)."""
    s = complex(s)
    region = RegionSelector.classify(s)
    if region == REGION_DIRECT:
        parity = field.half_unit.direct_parity
        ev = zeta_direct(field, s, parity, direct_terms_for(field, s, tol, parity))
        return ZetaEvaluation(ev.value, METHOD_POISSON, ev.terms_used, ev.tail)
    if region == REGION_STRIP:
        return zeta_even_poisson_strip(field, s, tol)
    return _even_left(field, s, tol)


def zeta_functional_reconstruction(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-10,
) -> tuple[complex, complex, int]:
    """The |m|^(1-s) parts of the strip form, summed against their closed form.

    For Re s < 0 the phase terms of the bracketed m-sum converge on their
    own; their total is minus the zeta term of the strip form by the
    functional equation.  Returns (reconstructed, reference, terms): the
    literal partial sum with its prefactors, and -q^(s/2) zeta(s)/(4 log eps)^s.
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
