"""The one mapping from (unit norm, method, parity) to an evaluator.

Every caller that picks a route by name - the CLI, grids, library users -
goes through evaluate().  Evaluators are looked up by their module-level
names at call time, so a wrapper installed on one of those names sees every
dispatched call.
"""

from __future__ import annotations

import cmath
import math

from .config import Settings
from .continuation import (
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
    zeta_combined_binomial,
    zeta_direct,
    zeta_even_binomial,
    zeta_norm_plus_one,
    zeta_odd_binomial,
)
from .crosscheck import SHIFTED_CONV_BOUND, shifted_convolution_even, shifted_convolution_odd
from .errors import DomainError, TooSlowConvergenceError
from .poisson import zeta_even_poisson, zeta_odd_poisson
from .quadfield import QuadraticField


def _sum_of_parts(odd: ZetaEvaluation, even: ZetaEvaluation) -> ZetaEvaluation:
    """Z = Z_odd + Z_even for routes without a collapsed combined series.

    Values, terms and tail bounds add; the bound is rigorous only if both
    parts are, and the pole distance is the smaller of the two.
    """
    return ZetaEvaluation(
        value=odd.value + even.value,
        method=odd.method,
        terms_used=odd.terms_used + even.terms_used,
        tail=SeriesTail(odd.tail.bound + even.tail.bound,
                        odd.tail.rigorous and even.tail.rigorous),
        nearest_pole_distance=min(odd.nearest_pole_distance, even.nearest_pole_distance),
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

    A non-finite s raises DomainError.  Norm +1 fields have no odd/even
    split: only the combined parity by the binomial or direct route exists
    there, anything else raises NormPlusOneError.  The shifted-convolution
    route scans to its default bound and raises TooSlowConvergenceError when
    its tail bound there exceeds tol relative to the value.
    """
    if parity not in PARITIES:
        raise DomainError(f"parity must be one of {PARITIES}, got {parity!r}")
    if not cmath.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    if method == METHOD_DIRECT:
        if parity != PARITY_COMBINED:
            field.require_norm_minus_one()
        return zeta_direct(field, s, parity, direct_terms_for(field, s, tol, parity))
    if not field.is_norm_minus_one:
        if parity != PARITY_COMBINED or method != METHOD_BINOMIAL:
            field.require_norm_minus_one()
        return zeta_norm_plus_one(field, s, tol, settings)

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
        return _sum_of_parts(zeta_odd_poisson(field, s, tol, settings),
                             zeta_even_poisson(field, s, tol, settings))
    if method == METHOD_SHIFTED:
        if parity == PARITY_ODD:
            ev = shifted_convolution_odd(field, s)
        elif parity == PARITY_EVEN:
            ev = shifted_convolution_even(field, s)
        else:
            ev = _sum_of_parts(shifted_convolution_odd(field, s),
                               shifted_convolution_even(field, s))
        return _shifted_within_tol(ev, s, tol)
    raise DomainError(f"unknown method {method!r}")
