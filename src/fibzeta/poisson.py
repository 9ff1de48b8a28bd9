"""Poisson-summation continuations.

Odd-indexed case: the summand (eps^n + eps^-n)^(-s) is even in n, so
Poisson summation over the odd integers gives a two-sided gamma series

    Z_odd(s) = q^(s/2) / (8 Gamma(s) log eps)
               * sum_m (-1)^m Gamma(s/2 + i v_m) Gamma(s/2 - i v_m),

v_m = pi m / (2 log eps), whose terms decay like exp(-pi v_m).  The 1/Gamma(s)
prefactor forces zeros at negative odd integers.

Even-indexed case: the summand vanishes at n=0 only after regularizing by
(4 x log eps)^(-s), and truncated Poisson summation yields a three-region
evaluation: the direct series for Re s >= 1/2; a strip form built from
zeta(s), a closed-form constant phase, and bracketed gamma-ratio terms; and
for Re s well left of 0 the bare gamma-ratio sum.  The gamma-ratio sums are
accelerated exactly: the ratio Gamma(z + a)/Gamma(z + 1 - a) admits an
asymptotic expansion in even powers of 1/z whose term-by-term m-sums are
Riemann zeta values, so subtracting two correction orders leaves a remainder
falling like m^(Re s - 7).  The two ratios of a pair +-m share their Lanczos
values: for Re s < 1 the reflection of each numerator Gamma(s/2 -+ i v_m)
needs log Gamma(1 - s/2 +- i v_m), the other ratio's denominator, so a pair
costs two Lanczos sums, not four.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

from .complexfn import _LOG_PI, _log_sin_pi, czeta, log_gamma, rgamma
from .config import Settings, default_settings
from .continuation import (
    LATTICE_SPLIT,
    METHOD_POISSON,
    PARITY_EVEN,
    SeriesTail,
    ZetaEvaluation,
    _q_power,
    check_pole_guard,
    direct_terms_for,
    zeta_direct,
)
from .errors import (
    NearOneSingularityError,
    OutOfRegionError,
    PoleProximityError,
    TooSlowConvergenceError,
)
from .quadfield import QuadraticField

REGION_DIRECT = "direct"
REGION_STRIP = "strip"
REGION_LEFT = "left"


# the even-indexed evaluation uses the direct series for Re s >= REGION_DIRECT_MIN,
# the bare gamma-ratio sum for Re s <= REGION_LEFT_MAX and the strip form between
REGION_DIRECT_MIN = 0.5
REGION_LEFT_MAX = -0.25
# the strip form converges for Re s < 2 and is evaluated only below this real part
STRIP_RE_MAX = 1.95
# the strip form refuses points this close to s = 1
NEAR_ONE_RADIUS = 0.1
# hard cap on Fourier-side summation lengths
MAX_FOURIER_TERMS = 2_000_000


class RegionSelector:
    """Dispatch boundaries for the even-indexed Poisson evaluation.

    The strip form is provably convergent for Re s < 2 but is only used on
    (REGION_LEFT_MAX, REGION_DIRECT_MIN); the overlap bands with both
    neighbours remain callable for consistency testing.  The strip region
    ends left of Re s = 1 - NEAR_ONE_RADIUS, so no point it selects is near 1.
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


def fourier_coefficient_odd(
    field: QuadraticField,
    s: complex,
    m: int,
    settings: Settings | None = None,
) -> complex:
    """Fourier transform of x -> (eps^x + eps^-x)^(-s) at integer frequency m.

    Equals B(s/2 + pi i m/log eps, s/2 - pi i m/log eps) / (2 log eps); the
    m = 0 value is Gamma(s/2)^2 / (2 Gamma(s) log eps).
    """
    settings = settings or default_settings()
    s = complex(s)
    log_eps = field.log_eps
    w = math.pi * m / log_eps
    for sign in (1.0, -1.0):
        arg = 0.5 * s + sign * 1j * w
        n = round(arg.real)
        if n <= 0 and abs(arg - n) <= settings.pole_guard_radius:
            pole = complex(2 * n, -2.0 * sign * w)
            raise PoleProximityError(s, pole, -n, m, abs(arg - n))
    product = cmath.exp(log_gamma(0.5 * s + 1j * w) + log_gamma(0.5 * s - 1j * w))
    return product * rgamma(s) / (2.0 * log_eps)


def zeta_odd_poisson(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-12,
    settings: Settings | None = None,
) -> ZetaEvaluation:
    """Odd-indexed zeta via the two-sided gamma series (valid on all of C)."""
    field.require_norm_minus_one()
    settings = settings or default_settings()
    s = complex(s)
    dist = check_pole_guard(field, s, LATTICE_SPLIT, settings.pole_guard_radius)

    log_eps = field.log_eps
    half_step = math.pi / (2.0 * log_eps)
    decay = math.exp(-math.pi * half_step)  # per-unit-m asymptotic shrink factor
    half_s = 0.5 * s
    total = cmath.exp(2.0 * log_gamma(half_s))
    m = 0
    term_abs = abs(total)
    sign = 2.0  # 2 (-1)^m, flipped before each term
    while True:
        m += 1
        v = half_step * m
        sign = -sign
        pair = cmath.exp(log_gamma(half_s + 1j * v) + log_gamma(half_s - 1j * v))
        term = sign * pair
        total += term
        term_abs = abs(term)
        if m >= 3 and term_abs <= tol * max(abs(total), 1e-30):
            break
        if m > MAX_FOURIER_TERMS:
            raise TooSlowConvergenceError(float(m), MAX_FOURIER_TERMS)
    prefactor = _q_power(field, s) * rgamma(s) / (8.0 * log_eps)
    tail = term_abs * decay / (1.0 - decay) * abs(prefactor)
    return ZetaEvaluation(
        value=prefactor * total,
        method=METHOD_POISSON,
        terms_used=2 * m + 1,
        tail=SeriesTail(bound=tail, rigorous=False),
        nearest_pole_distance=dist,
    )


def _bernoulli_b3(x: complex) -> complex:
    return x * (x * (x - 1.5) + 0.5)


def _bernoulli_b5(x: complex) -> complex:
    return x * (x * (x * (x * (x - 2.5) + 5.0 / 3.0)) - 1.0 / 6.0)


def _gamma_ratio(s: complex, w: float) -> complex:
    """Gamma(s/2 - i w) / Gamma(1 - s/2 - i w), in log space."""
    return cmath.exp(log_gamma(0.5 * s - 1j * w) - log_gamma(1.0 - 0.5 * s - 1j * w))


def _ratio_pair(s: complex, v: float) -> complex:
    """_gamma_ratio(s, v) + _gamma_ratio(s, -v) from two Lanczos values.

    For Re s < 1 both numerators Gamma(s/2 -+ i v) lie left of Re 1/2, and
    the reflection of each evaluates log Gamma(1 - s/2 +- i v), which is the
    other ratio's denominator.  The arguments are built as _gamma_ratio builds
    them and combined in its order, so the sum is the same float.
    """
    a = 0.5 * s
    if a.real >= 0.5:
        return _gamma_ratio(s, v) + _gamma_ratio(s, -v)
    l_minus = log_gamma(1.0 - a - 1j * v)
    l_plus = log_gamma(1.0 - a - 1j * -v)
    return cmath.exp((_LOG_PI - _log_sin_pi(a - 1j * v) - l_plus) - l_minus) + cmath.exp(
        (_LOG_PI - _log_sin_pi(a - 1j * -v) - l_minus) - l_plus
    )


def _ratio_pair_core(
    field: QuadraticField,
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
    """
    log_eps = field.log_eps
    half_step = math.pi / (2.0 * log_eps)
    a = 0.5 * s
    e2 = -_bernoulli_b3(a) / 3.0
    e4 = -_bernoulli_b5(a) / 10.0 + _bernoulli_b3(a) ** 2 / 18.0
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
    while True:
        m += 1
        v = half_step * m
        pair = _ratio_pair(s, v)
        log_v = math.log(v)
        asym = (
            2.0
            * sin_half
            * (
                cmath.exp((s - 1.0) * log_v)
                - e2 * cmath.exp((s - 3.0) * log_v)
                + e4 * cmath.exp((s - 5.0) * log_v)
            )
        )
        residual = pair - asym
        total += residual
        residual_abs = abs(residual)
        if m >= m_min:
            # the gamma ratio is exponentiated from log differences of size
            # ~ pi v, so its rounding error scales with v
            noise_floor = 2.3e-16 * (6.0 + 3.2 * v) * (abs(pair) + abs(asym))
            if residual_abs * m * tail_factor <= tol_abs or residual_abs <= noise_floor:
                break
        if m > MAX_FOURIER_TERMS:
            raise TooSlowConvergenceError(float(m), MAX_FOURIER_TERMS)
    tail = max(residual_abs * m * tail_factor, residual_abs * math.sqrt(m))
    return total, m, tail


def _even_prefactor(field: QuadraticField, s: complex) -> complex:
    return _q_power(field, s) * cmath.exp(log_gamma(1.0 - s)) / (4.0 * field.log_eps)


def zeta_even_poisson_strip(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-12,
    settings: Settings | None = None,
) -> ZetaEvaluation:
    """Strip-form evaluation: valid for Re s < 2 away from poles and s=1.

    Z_even(s) = q^(s/2) zeta(s) / (4 log eps)^s
              + q^(s/2) Gamma(1-s) Gamma(s/2) / (4 Gamma(1-s/2) log eps)
              + q^(s/2) sum_{m != 0} [gamma-ratio term - |m|^(s-1) phase term].
    """
    field.require_norm_minus_one()
    settings = settings or default_settings()
    s = complex(s)
    if s.real >= STRIP_RE_MAX:
        raise OutOfRegionError(f"strip form needs Re s < 2, got {s.real}")
    if abs(s - 1.0) <= NEAR_ONE_RADIUS:
        raise NearOneSingularityError(f"strip form unstable within {NEAR_ONE_RADIUS} of s=1")
    dist = check_pole_guard(field, s, LATTICE_SPLIT, settings.pole_guard_radius)
    log_eps = field.log_eps
    scale = _q_power(field, s)
    zeta_term = scale * czeta(s) * cmath.exp(-s * math.log(4.0 * log_eps))
    pref = _even_prefactor(field, s)
    tol_abs = tol * max(abs(zeta_term), 1.0) / max(abs(pref), 1e-30)
    core, pairs, tail = _ratio_pair_core(field, s, tol_abs, include_leading=False)
    return ZetaEvaluation(
        value=zeta_term + pref * core,
        method=METHOD_POISSON,
        terms_used=2 * pairs + 1,
        tail=SeriesTail(bound=tail * abs(pref), rigorous=False),
        nearest_pole_distance=dist,
    )


def zeta_even_poisson_left(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-12,
    settings: Settings | None = None,
    accelerated: bool = True,
) -> ZetaEvaluation:
    """Left-region evaluation: the bare gamma-ratio sum, Re s < 0.

    Z_even(s) = q^(s/2) Gamma(1-s) / (4 log eps) * sum_m ratio(m).

    accelerated=True (default) sums the asymptotic orders through Riemann
    zeta values, leaving a remainder that falls like m^(Re s - 7); the plain
    truncated sum decays only like m^(Re s) in the tail and refuses to run
    when the projected length passes MAX_FOURIER_TERMS.
    """
    field.require_norm_minus_one()
    settings = settings or default_settings()
    s = complex(s)
    if s.real >= 0:
        raise OutOfRegionError(f"left form needs Re s < 0, got {s.real}")
    dist = check_pole_guard(field, s, LATTICE_SPLIT, settings.pole_guard_radius)
    pref = _even_prefactor(field, s)
    if accelerated:
        tol_abs = tol * 1.0 / max(abs(pref), 1e-30)
        core, pairs, tail = _ratio_pair_core(field, s, tol_abs, include_leading=True)
        return ZetaEvaluation(
            value=pref * core,
            method=METHOD_POISSON,
            terms_used=2 * pairs + 1,
            tail=SeriesTail(bound=tail * abs(pref), rigorous=False),
            nearest_pole_distance=dist,
        )
    return _even_left_plain(field, s, tol, pref, dist)


def _even_left_plain(
    field: QuadraticField,
    s: complex,
    tol: float,
    pref: complex,
    dist: float,
) -> ZetaEvaluation:
    """Literal truncation of the gamma-ratio sum with tail C M^(Re s) / |Re s|."""
    log_eps = field.log_eps
    half_step = math.pi / (2.0 * log_eps)
    x = s.real
    # projected length from the tail model C M^x / |x|, C calibrated from
    # the term shape |pair_m| ~ 2 (half_step m)^(x-1)
    c_est = abs(pref) * 2.0 * math.exp((x - 1.0) * math.log(half_step))
    tol_abs = tol  # absolute target on Z
    needed = (c_est / (tol_abs * abs(x))) ** (1.0 / abs(x))
    if x > -0.25 or needed > MAX_FOURIER_TERMS:
        raise TooSlowConvergenceError(needed, MAX_FOURIER_TERMS)
    total = _gamma_ratio(s, 0.0)
    m = 0
    term_abs = 0.0
    while True:
        m += 1
        v = half_step * m
        term = _ratio_pair(s, v)
        total += term
        term_abs = abs(term)
        tail = term_abs * m / abs(x)
        if m >= 8 and tail * abs(pref) <= tol_abs:
            break
        if m > MAX_FOURIER_TERMS:
            raise TooSlowConvergenceError(float(m), MAX_FOURIER_TERMS)
    return ZetaEvaluation(
        value=pref * total,
        method=METHOD_POISSON,
        terms_used=2 * m + 1,
        tail=SeriesTail(bound=term_abs * m / abs(x) * abs(pref), rigorous=False),
        nearest_pole_distance=dist,
    )


def zeta_even_poisson(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-12,
    settings: Settings | None = None,
) -> ZetaEvaluation:
    """Even-indexed zeta via truncated Poisson summation, region-dispatched."""
    field.require_norm_minus_one()
    settings = settings or default_settings()
    s = complex(s)
    region = RegionSelector.classify(s)
    if region == REGION_DIRECT:
        dist = check_pole_guard(field, s, LATTICE_SPLIT, settings.pole_guard_radius)
        n_terms = direct_terms_for(field, s, tol, PARITY_EVEN)
        ev = zeta_direct(field, s, PARITY_EVEN, n_terms)
        return replace(ev, method=METHOD_POISSON, nearest_pole_distance=dist)
    if region == REGION_STRIP:
        # the strip region ends left of the strip form's near-one disk, so
        # that check cannot fire here
        return zeta_even_poisson_strip(field, s, tol, settings)
    return zeta_even_poisson_left(field, s, tol, settings)


def regularized_fourier_integral(
    field: QuadraticField,
    s: complex,
    m: int,
    settings: Settings | None = None,
) -> complex:
    """Closed form of the one-sided regularized Fourier integral

        int_0^inf [(eps^2x - eps^-2x)^(-s) - (4 x log eps)^(-s)] e(m x) dx

    for nonzero integer frequency m (well behaved for Re s in (0, 3)):

        Gamma(1-s) Gamma(s/2 - i w) / (4 log eps Gamma(1 - s/2 - i w))
        - Gamma(1-s) e^(i pi (1-s) sgn(m) / 2) / ((2 pi |m|)^(1-s) (4 log eps)^s),

    with w = pi m / (2 log eps).
    """
    settings = settings or default_settings()
    if m == 0:
        raise ValueError("frequency m must be nonzero; the m=0 phase has its own closed form")
    s = complex(s)
    guard = settings.pole_guard_radius
    n = round(s.real)
    if n >= 1 and abs(s - n) <= guard:
        # Gamma(1-s) poles; the full integral stays finite but the two closed
        # pieces individually blow up
        raise PoleProximityError(s, complex(n, 0), n, 0, abs(s - n))
    log_eps = field.log_eps
    w = math.pi * m / (2.0 * log_eps)
    arg = 0.5 * s - 1j * w
    k = round(arg.real)
    if k <= 0 and abs(arg - k) <= guard:
        raise PoleProximityError(s, s, -k, m, abs(arg - k))
    gamma_1ms = cmath.exp(log_gamma(1.0 - s))
    first = gamma_1ms * _gamma_ratio(s, w) / (4.0 * log_eps)
    sgn = 1.0 if m > 0 else -1.0
    second = (
        gamma_1ms
        * cmath.exp(0.5j * math.pi * (1.0 - s) * sgn)
        * cmath.exp(-(1.0 - s) * math.log(2.0 * math.pi * abs(m)))
        * cmath.exp(-s * math.log(4.0 * log_eps))
    )
    return first - second


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
    x = s.real
    log_eps = field.log_eps
    gamma_1ms = cmath.exp(log_gamma(1.0 - s))
    phase_pair = cmath.exp(0.5j * math.pi * (1.0 - s)) + cmath.exp(-0.5j * math.pi * (1.0 - s))
    coeff = (
        -_q_power(field, s)
        * gamma_1ms
        * phase_pair
        * cmath.exp((s - 1.0) * math.log(2.0 * math.pi))
        * cmath.exp(-s * math.log(4.0 * log_eps))
    )
    partial = 0j
    m = 0
    while True:
        m += 1
        term = cmath.exp((s - 1.0) * math.log(m))
        partial += term
        if m >= 8 and abs(term) * m / abs(x) <= tol / max(abs(coeff), 1e-30):
            break
        if m > MAX_FOURIER_TERMS:
            raise TooSlowConvergenceError(float(m), MAX_FOURIER_TERMS)
    reconstructed = coeff * partial
    reference = -_q_power(field, s) * czeta(s) * cmath.exp(-s * math.log(4.0 * log_eps))
    return reconstructed, reference, m
