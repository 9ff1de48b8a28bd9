"""The one mapping from (unit norm, method, parity) to an evaluator.

Every caller that picks a route by name - the CLI, grids, the verify
suites, library users - goes through evaluate().  Evaluators are looked up
by their module-level names at call time, so a wrapper installed on one of
those names sees every dispatched call.

The evaluators are unguarded series; evaluate() alone applies the pole
policy.  A norm -1 combined value reports its distance to the combined
lattice, any other value to the split one.  Binomial refuses near the lattice
it reports, Poisson near the split one, where each of its parts is singular;
direct and shifted convolution only report.  Each evaluation searches the
lattice once, but a norm -1 combined Poisson value twice (the guard on the
split lattice, the report on the combined one), and copies the route's
record once, by tuple.__new__, to fill in the distance.

No evaluation returns a value or a bound that is not finite: evaluate()
raises FactorOverflowError where a route overflows or ends in inf or NaN,
and DomainError for |s| above MAX_ABS_S = 1e300, well below the |s| of about
1e306 from which math functions of the routes fail on their arguments.

The shifted convolution lives in crosscheck, a verification module that
evaluate() imports on the first shifted-convolution call, so that a start-up
that only evaluates by the other routes never loads it.
"""

from __future__ import annotations

import cmath
import math

from .config import Settings
from .continuation import (
    LATTICE_COMBINED,
    LATTICE_SPLIT,
    METHOD_BINOMIAL,
    METHOD_DIRECT,
    METHOD_POISSON,
    METHOD_SHIFTED,
    PARITY_COMBINED,
    PARITY_EVEN,
    PARITY_ODD,
    PARITIES,
    ZetaEvaluation,
    direct_terms_for,
    nearest_lattice_pole,
    zeta_combined_binomial,
    zeta_direct,
    zeta_even_binomial,
    zeta_odd_binomial,
)
from .errors import DomainError, FactorOverflowError, PoleProximityError, TooSlowConvergenceError
from .poisson import zeta_even_poisson, zeta_odd_poisson
from .quadfield import QuadraticField

_DEFAULT_SETTINGS = Settings()
_UNIT_ROUNDOFF = 2.0**-53
MAX_ABS_S = 1e300


def check_tol(tol: float) -> None:
    """Raise DomainError unless 0 < tol <= 1e-2 (so a NaN tol is rejected too)."""
    if not (0.0 < tol <= 1e-2):
        raise DomainError(f"tol must be in (0, 1e-2], got {tol}")


def _pole_distance(field: QuadraticField, s: complex, parity: str, method: str,
                   tol: float, settings: Settings | None) -> float:
    """The pole policy of the module docstring: the distance to the lattice the
    value reports, or PoleProximityError where its route refuses."""
    combined = parity == PARITY_COMBINED and field.is_norm_minus_one
    lattice = LATTICE_COMBINED if combined else LATTICE_SPLIT
    if method == METHOD_BINOMIAL:
        # The singular denominator (1 - u^2, or 1 -+ u for the combined kind)
        # grows by `slope` per unit distance from its pole, and rounding u leaves
        # it an absolute error near 2^-53: closer than 2^-53 / (slope tol), that
        # error alone is more than tol relative to the value.
        log_eta = field.half_unit.log_eta
        slope = log_eta if combined else 2.0 * log_eta
        min_radius = _UNIT_ROUNDOFF / (slope * tol)
        guarded = lattice
    elif method == METHOD_POISSON:
        min_radius, guarded = 0.0, LATTICE_SPLIT
    else:
        return nearest_lattice_pole(field, s, lattice)[3]
    loc, k, m, dist = nearest_lattice_pole(field, s, guarded)
    # the radius is the larger of min_radius and the settings' guard radius
    if dist <= min_radius or dist <= (settings or _DEFAULT_SETTINGS).pole_guard_radius:
        raise PoleProximityError(s, loc, k, m, dist)
    return dist if guarded == lattice else nearest_lattice_pole(field, s, lattice)[3]


def _combined(field: QuadraticField, odd_route, even_route, s, *args) -> ZetaEvaluation:
    """Z for routes without a collapsed combined series: the even route alone
    for a norm +1 unit (see HalfUnit), else Z_odd + Z_even, whose values,
    terms and tail bounds add; the bound is rigorous only if both parts are.
    """
    if not field.is_norm_minus_one:
        return even_route(field, s, *args)
    odd, even = odd_route(field, s, *args), even_route(field, s, *args)
    return ZetaEvaluation(odd.value + even.value, odd.method, odd.terms_used + even.terms_used,
                          odd.tail_bound + even.tail_bound, odd.tail_rigorous and even.tail_rigorous)


def _shifted_within_tol(ev: ZetaEvaluation, s: complex, tol: float, bound: int) -> ZetaEvaluation:
    """ev itself if its tail is below tol relative to |Z|, else raise.

    The shifted-convolution scan tests sqrt(bound) candidates and its tail
    falls like bound^(-Re s/2), so reaching tol takes (tail / target)^(1/Re s)
    times as many candidates as the scan tests.
    """
    target = tol * max(abs(ev.value), 1e-30)
    if ev.tail_bound <= target:
        return ev
    cap = math.isqrt(bound)
    log_needed = math.log(cap) + math.log(ev.tail_bound / target) / s.real
    raise TooSlowConvergenceError(math.exp(min(log_needed, 709.0)), cap)


def evaluate(
    field: QuadraticField,
    s: complex,
    parity: str,
    method: str,
    tol: float,
    settings: Settings | None = None,
) -> ZetaEvaluation:
    """Z(s) of the given parity by the given method.

    A non-finite s, an |s| above MAX_ABS_S = 1e300 or a tol outside
    (0, 1e-2] raises DomainError.  Norm +1 fields have no odd/even split, so
    odd and even raise NormPlusOneError there; their combined parity is the
    even function of the half unit eps^(1/2) and takes every route.  The
    shifted-convolution route scans to its default bound and raises
    TooSlowConvergenceError when its tail bound there exceeds tol relative to
    the value.  A route that overflows, or whose value or bound is not
    finite, raises FactorOverflowError.  The pole policy (see the module
    docstring) reads its radius from settings, default Settings().
    """
    if parity not in PARITIES:
        raise DomainError(f"parity must be one of {PARITIES}, got {parity!r}")
    # one test for both limits: hypot is inf or NaN where s is not finite
    if not math.hypot(s.real, s.imag) <= MAX_ABS_S:
        if not cmath.isfinite(s):
            raise DomainError(f"s must be finite, got {s!r}")
        raise DomainError(f"|s| must be at most {MAX_ABS_S:g}, got {s!r}")
    check_tol(tol)
    if parity != PARITY_COMBINED:
        field.require_norm_minus_one()
    s = complex(s)
    dist = _pole_distance(field, s, parity, method, tol, settings)
    try:
        if method == METHOD_DIRECT:
            ev = zeta_direct(field, s, parity, direct_terms_for(field, s, tol, parity))
        elif method == METHOD_BINOMIAL:
            if parity == PARITY_ODD:
                ev = zeta_odd_binomial(field, s, tol)
            elif parity == PARITY_EVEN:
                ev = zeta_even_binomial(field, s, tol)
            else:
                ev = zeta_combined_binomial(field, s, tol)
        elif method == METHOD_POISSON:
            if parity == PARITY_ODD:
                ev = zeta_odd_poisson(field, s, tol)
            elif parity == PARITY_EVEN:
                ev = zeta_even_poisson(field, s, tol)
            else:
                ev = _combined(field, zeta_odd_poisson, zeta_even_poisson, s, tol)
        elif method == METHOD_SHIFTED:
            # looked up on the module at call time, like every route
            from . import crosscheck

            if parity == PARITY_ODD:
                ev = crosscheck.shifted_convolution_odd(field, s)
            elif parity == PARITY_EVEN:
                ev = crosscheck.shifted_convolution_even(field, s)
            else:
                ev = _combined(field, crosscheck.shifted_convolution_odd,
                               crosscheck.shifted_convolution_even, s)
            ev = _shifted_within_tol(ev, s, tol, crosscheck.SHIFTED_CONV_BOUND)
        else:
            raise DomainError(f"unknown method {method!r}")
    except OverflowError:
        ev = None
    if ev is None or not (cmath.isfinite(ev.value) and math.isfinite(ev.tail_bound)):
        raise FactorOverflowError(f"in the {method} route", s)
    # the one record evaluate builds, the route's own with the distance filled
    # in, by the tuple.__new__ call that ZetaEvaluation._make makes: the
    # constructor's Python-level __new__ would cost about 1% of a binomial grid row
    return tuple.__new__(ZetaEvaluation, ev[:5] + (dist,))
