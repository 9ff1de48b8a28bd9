"""The one mapping from (unit norm, method, parity) to an evaluator.

Every caller that picks a route by name - the CLI, grids, the verify
suites, library users - goes through evaluate().  Evaluators are looked up
by their module-level names at call time, so a wrapper installed on one of
those names sees every dispatched call.
"""

from __future__ import annotations

import cmath
import math

from .config import Settings
from .continuation import (
    LATTICE_COMBINED,
    METHOD_BINOMIAL,
    METHOD_DIRECT,
    METHOD_POISSON,
    METHOD_SHIFTED,
    PARITY_COMBINED,
    PARITY_EVEN,
    PARITY_ODD,
    PARITIES,
    SeriesTail,
    ZetaEvaluation,
    direct_terms_for,
    nearest_lattice_pole,
    zeta_combined_binomial,
    zeta_direct,
    zeta_even_binomial,
    zeta_odd_binomial,
)
from .crosscheck import SHIFTED_CONV_BOUND, shifted_convolution_even, shifted_convolution_odd
from .errors import DomainError, TooSlowConvergenceError
from .poisson import zeta_even_poisson, zeta_odd_poisson
from .quadfield import QuadraticField


def check_tol(tol: float) -> None:
    """Raise DomainError unless 0 < tol <= 1e-2 (so a NaN tol is rejected too)."""
    if not (0.0 < tol <= 1e-2):
        raise DomainError(f"tol must be in (0, 1e-2], got {tol}")


def _combined(field: QuadraticField, odd_route, even_route, s, *args) -> ZetaEvaluation:
    """Z for routes without a collapsed combined series: the even route alone
    for a norm +1 unit (see HalfUnit), else Z_odd + Z_even, whose values,
    terms and tail bounds add; the bound is rigorous only if both parts are.
    The pole distance is to the combined lattice, since the split poles with
    k + m odd cancel in the sum (each part still refuses near its own).
    """
    if not field.is_norm_minus_one:
        return even_route(field, s, *args)
    odd, even = odd_route(field, s, *args), even_route(field, s, *args)
    return ZetaEvaluation(
        value=odd.value + even.value,
        method=odd.method,
        terms_used=odd.terms_used + even.terms_used,
        tail=SeriesTail(odd.tail.bound + even.tail.bound,
                        odd.tail.rigorous and even.tail.rigorous),
        nearest_pole_distance=nearest_lattice_pole(field, s, LATTICE_COMBINED)[3],
    )


def _shifted_within_tol(ev: ZetaEvaluation, s: complex, tol: float) -> ZetaEvaluation:
    """ev itself if its tail is below tol relative to |Z|, else raise.

    The shifted-convolution scan tests sqrt(n_max) candidates and its tail
    falls like n_max^(-Re s/2), so reaching tol takes (bound / target)^(1/Re s)
    times as many candidates as the scan tests.
    """
    target = tol * max(abs(ev.value), 1e-30)
    if ev.tail.bound <= target:
        return ev
    cap = math.isqrt(SHIFTED_CONV_BOUND)
    log_needed = math.log(cap) + math.log(ev.tail.bound / target) / complex(s).real
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

    A non-finite s or a tol outside (0, 1e-2] raises DomainError.  Norm +1
    fields have no odd/even split, so odd and even raise NormPlusOneError
    there; their combined parity is the even function of the half unit
    eps^(1/2) and takes every route.  The shifted-convolution route scans to
    its default bound and raises TooSlowConvergenceError when its tail bound
    there exceeds tol relative to the value.
    """
    if parity not in PARITIES:
        raise DomainError(f"parity must be one of {PARITIES}, got {parity!r}")
    if not cmath.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    check_tol(tol)
    if parity != PARITY_COMBINED:
        field.require_norm_minus_one()
    if method == METHOD_DIRECT:
        return zeta_direct(field, s, parity, direct_terms_for(field, s, tol, parity))
    if method == METHOD_BINOMIAL:
        if parity == PARITY_ODD:
            return zeta_odd_binomial(field, s, tol, settings)
        if parity == PARITY_EVEN:
            return zeta_even_binomial(field, s, tol, settings)
        return zeta_combined_binomial(field, s, tol, settings)
    if method == METHOD_POISSON:
        if parity == PARITY_ODD:
            return zeta_odd_poisson(field, s, tol, settings)
        if parity == PARITY_EVEN:
            return zeta_even_poisson(field, s, tol, settings)
        return _combined(field, zeta_odd_poisson, zeta_even_poisson, s, tol, settings)
    if method == METHOD_SHIFTED:
        if parity == PARITY_ODD:
            ev = shifted_convolution_odd(field, s)
        elif parity == PARITY_EVEN:
            ev = shifted_convolution_even(field, s)
        else:
            ev = _combined(field, shifted_convolution_odd, shifted_convolution_even, s)
        return _shifted_within_tol(ev, s, tol)
    raise DomainError(f"unknown method {method!r}")
