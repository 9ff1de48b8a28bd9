"""Binomial-series continuations of the odd / even / combined zeta functions.

For a norm -1 unit the odd- and even-indexed series continue to all of C as

    Z_odd(s)  = q^(s/2) sum_k C(-s,k) eps^(s+2k) / (eps^(2s+4k) - 1)
    Z_even(s) = q^(s/2) sum_k C(-s,k) (-1)^k / (eps^(2s+4k) - 1)

and their sum collapses to q^(s/2) sum_k C(-s,k) / (eps^(s+2k) + (-1)^(k+1)).
Each summand is rewritten in terms of u = eps^(-(s+2k)) so no intermediate
can overflow; the k-sum converges geometrically for every s off the pole
lattice s = -2k + pi i m / log eps.  A norm +1 zeta is Z_even of eps^(1/2).

The evaluators are plain series of (field, s, tol): each records its value,
terms used and tail bound.  dispatch.evaluate checks the unit norm, guards
the pole lattice and fills in the distance to it.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import (
    FactorOverflowError,
    OutOfRegionError,
    PoleProximityError,
    TooSlowConvergenceError,
)
from .quadfield import PARITIES, PARITY_COMBINED, PARITY_EVEN, PARITY_ODD  # re-exported
from .quadfield import QuadraticField, log_fib_upto

METHOD_DIRECT = "direct"
METHOD_BINOMIAL = "binomial"
METHOD_POISSON = "poisson"
METHOD_SHIFTED = "shifted_convolution"
METHODS = (METHOD_DIRECT, METHOD_BINOMIAL, METHOD_POISSON, METHOD_SHIFTED)

# pole lattices: "split" for Z_odd and the even function of the half unit,
# "combined" for Z_odd + Z_even of a norm -1 unit
LATTICE_SPLIT = "split"
LATTICE_COMBINED = "combined"

_MAX_BINOMIAL_TERMS = 100_000
# the k-sum checks its running total for inf and NaN once per this many terms
_BINOMIAL_CHECK_STRIDE = 1000
# the factor a FactorOverflowError names where the binomial k-sum leaves double range
_K_SUM_TERM = "a term of the k-sum"
_MAX_DIRECT_TERMS = 100_000


class SeriesTail(NamedTuple):
    """Truncation-error estimate; rigorous=False marks a calibrated model."""

    bound: float
    rigorous: bool


class ZetaEvaluation(NamedTuple):
    """One evaluation: an immutable record.  A route leaves the pole distance
    NaN; dispatch.evaluate returns the record with it filled in."""

    value: complex
    method: str
    terms_used: int
    tail: SeriesTail
    nearest_pole_distance: float = math.nan

    @property
    def tail_bound(self) -> float:
        return self.tail.bound


def nearest_lattice_pole(
    field: QuadraticField, s: complex, lattice: str = LATTICE_SPLIT
) -> tuple[complex, int, int, float]:
    """Nearest pole (location, k, m, distance) of the requested lattice.

    split:    s0 = -2k + pi i m / log eta,   k >= 0, m in Z (eta of HalfUnit)
    combined: same points restricted to m + k even

    The squared distance separates into (Re s + 2k)^2 + (Im s - m pi/log eta)^2,
    so k and m are each the nearer of the two lattice lines around s.  Where
    the two lines are within rounding of one another both stay candidates,
    and a combined-lattice candidate with k + m odd gives way to its four
    neighbours.  Of the candidates in (k, m) order the first nearest wins.
    """
    s = complex(s)
    spacing = math.pi / field.half_unit.log_eta
    k = max(0, math.floor(-0.5 * s.real))
    ks = _nearer_lines(k, abs(s.real + 2.0 * k), abs(s.real + 2.0 * (k + 1)))
    m = math.floor(s.imag / spacing)
    ms = _nearer_lines(m, abs(s.imag - m * spacing), abs(s.imag - (m + 1) * spacing))
    if len(ks) == len(ms) == 1:
        k, m = ks[0], ms[0]
        if lattice != LATTICE_COMBINED or (k + m) % 2 == 0:
            loc = complex(-2.0 * k, m * spacing)
            return loc, k, m, abs(s - loc)
        cands = _neighbours(k, m)
    else:
        cands = [(k, m) for k in ks for m in ms]
        if lattice == LATTICE_COMBINED:
            cands = sorted({c for k, m in cands
                            for c in ([(k, m)] if (k + m) % 2 == 0 else _neighbours(k, m))})
    best = None
    for k, m in cands:
        if k < 0:
            continue
        loc = complex(-2.0 * k, m * spacing)
        dist = abs(s - loc)
        if best is None or dist < best[3]:
            best = (loc, k, m, dist)
    return best


def _nearer_lines(i: int, d_lo: float, d_hi: float) -> tuple[int, ...]:
    """Index i or i + 1, whichever line is nearer (d_lo, d_hi away), or both
    when the two distances might round to one complex distance."""
    if d_hi - d_lo > 1e-9 * d_hi:
        return (i,)
    if d_lo - d_hi > 1e-9 * d_lo:
        return (i + 1,)
    return (i, i + 1)


def _neighbours(k: int, m: int) -> tuple[tuple[int, int], ...]:
    """The four lattice points next to (k, m), in (k, m) order."""
    return ((k - 1, m), (k, m - 1), (k, m + 1), (k + 1, m))


def _binomial_sum(
    field: QuadraticField, s: complex, tol: float, kind: str
) -> tuple[complex, int, float]:
    """Shared k-sum; returns (sum, terms, tail) without the q^(s/2) factor.

    kind picks the summand shape, written via u = eta^(-(s+2k)):
      odd:      u / (1 - u^2)
      even:     (-1)^k u^2 / (1 - u^2)
      combined: u / (1 - u) for even k, u / (1 + u) for odd k
    A norm +1 field sums the even kind at log eta = log eps / 2.  Every
    summand falls at least like eps^(-2) per k (u for norm -1, u^2 = eps^(-2k)
    up to a constant for norm +1), the decay the tail bound assumes.  Once
    every _BINOMIAL_CHECK_STRIDE terms the running total is tested: where
    C(-s, k) has overflowed (Re s of several hundred) every later term is
    inf or NaN and the stop test can never pass, so the sum raises
    FactorOverflowError then instead of running to its cap.

    u is a geometric sequence with the real ratio eta^(-2): it is formed by
    exp at k = 0 and stepped by one real multiplication a term.  Each step
    rounds, so u drifts by about k ulp; the check re-forms u by exp, which
    bounds the drift to _BINOMIAL_CHECK_STRIDE steps.  Near a lattice pole
    -2k* + pi i m / log eta the denominators of term k* = round(-Re s / 2)
    nearly vanish and would magnify that drift, so the first check comes
    at k*, and that term sees u exactly as exp forms it.  At a pole on the
    real axis exp makes that u exactly 1 and a denominator 1 - u^2 (1 - u
    for the combined kind at even k*) exactly 0.  The sum tests for this
    before its loop and raises ZeroDivisionError, because by term k* its
    partial sums may already have overflowed.
    """
    log_eta = field.half_unit.log_eta
    decay = math.exp(-2.0 * field.log_eps)
    odd, even = kind == "odd", kind == "even"
    abs_s = abs(s)
    neg_s = -s
    k_min = int(math.ceil(abs_s)) + 5
    if k_min > _MAX_BINOMIAL_TERMS:
        # the stop test runs only from k_min on, so the cap is reached first
        raise TooSlowConvergenceError(k_min, _MAX_BINOMIAL_TERMS)
    step = math.exp(-2.0 * log_eta)
    u = cmath.exp(neg_s * log_eta)  # an OverflowError here comes before any pole test
    k_pole = max(0, round(-0.5 * s.real))
    if (s.imag * log_eta == 0.0 and (kind != "combined" or k_pole % 2 == 0)
            and cmath.exp(-(s + 2.0 * k_pole) * log_eta) == 1.0):
        raise ZeroDivisionError("s is the lattice pole -2k to double precision")
    coeff: complex = 1.0 + 0j
    total: complex = 0j
    k = 0
    sign = 1  # (-1)^k; an int, so coeff * sign rounds exactly as coeff * (-1) ** k
    # the first check comes just before term k_pole, so that u is formed by exp there
    check_at = k_pole - 1 if k_pole else _BINOMIAL_CHECK_STRIDE
    while True:
        if odd:
            term = coeff * u / (1.0 - u * u)
        elif even:
            term = coeff * sign * u * u / (1.0 - u * u)
        elif sign > 0:
            term = coeff * u / (1.0 - u)
        else:
            term = coeff * u / (1.0 + u)
        total += term
        k1 = k + 1.0
        if k >= k_min:
            ratio = (abs_s + k) / k1 * decay
            if ratio < 1.0:
                size = abs(term)
                tail = size * ratio / (1.0 - ratio)
                if tail <= tol * max(abs(total), 1e-30) or size < 1e-280:
                    return total, k + 1, tail
        coeff = coeff * (neg_s - k) / k1
        u = u * step
        k += 1
        sign = -sign
        if k > check_at:
            # an inf or NaN term leaves the sum so for good
            if not cmath.isfinite(total):
                raise FactorOverflowError(_K_SUM_TERM, s)
            if k > _MAX_BINOMIAL_TERMS:
                raise TooSlowConvergenceError(float(k), _MAX_BINOMIAL_TERMS)
            check_at = min(check_at + _BINOMIAL_CHECK_STRIDE, _MAX_BINOMIAL_TERMS)
            u = cmath.exp(-(s + 2.0 * k) * log_eta)  # re-anchor the stepped u


def _q_power(field: QuadraticField, s: complex) -> complex:
    """q^(s/2), the prefactor shared by the binomial, Poisson and residue formulas."""
    return cmath.exp(0.5 * s * math.log(field.q))


def _binomial_eval(field: QuadraticField, s: complex, tol: float, kind: str) -> ZetaEvaluation:
    s = complex(s)
    try:
        total, terms, tail = _binomial_sum(field, s, tol, kind)
    except ZeroDivisionError:
        # s is a lattice pole -2k to double precision, where a denominator
        # 1 -+ u is exactly zero, however small the guard radius
        lattice = LATTICE_COMBINED if kind == "combined" else LATTICE_SPLIT
        raise PoleProximityError(s, *nearest_lattice_pole(field, s, lattice)) from None
    except OverflowError:
        raise FactorOverflowError(_K_SUM_TERM, s) from None
    if not cmath.isfinite(total):
        # u^2 overflowed to inf, and the summand became inf / inf
        raise FactorOverflowError(_K_SUM_TERM, s)
    try:
        scale = _q_power(field, s)
    except OverflowError:
        raise FactorOverflowError("q^(s/2)", s) from None
    return ZetaEvaluation(scale * total, METHOD_BINOMIAL, terms,
                          SeriesTail(tail * abs(scale), True))


def zeta_odd_binomial(field: QuadraticField, s: complex, tol: float = 1e-12) -> ZetaEvaluation:
    """Odd-indexed zeta sum_{n>=1} F(2n-1)^(-s), continued to C (norm -1 only)."""
    return _binomial_eval(field, s, tol, "odd")


def zeta_even_binomial(field: QuadraticField, s: complex, tol: float = 1e-12) -> ZetaEvaluation:
    """Even-indexed zeta sum_{n>=1} F(2n)^(-s), continued to C (norm -1 only)."""
    return _binomial_eval(field, s, tol, "even")


def zeta_combined_binomial(
    field: QuadraticField, s: complex, tol: float = 1e-12
) -> ZetaEvaluation:
    """Full zeta sum_{n>=1} F(n)^(-s) via the collapsed single series (for a
    norm +1 unit, the even series of the half unit).

    Equals zeta_odd_binomial + zeta_even_binomial; only lattice points with
    m + k even survive as poles, so it evaluates cleanly at the other half.
    """
    if field.is_norm_minus_one:
        return _binomial_eval(field, s, tol, "combined")
    return _binomial_eval(field, s, tol, "even")


# zeta_combined_binomial under its older norm +1 name, which bench/tracing.py hooks
zeta_norm_plus_one = zeta_combined_binomial


def direct_terms_for(field: QuadraticField, s: complex, tol: float, parity: str) -> int:
    """Number of direct-series terms for a relative tail below tol.

    Raises TooSlowConvergenceError when that number passes the cap of
    100,000 terms, as it does for 0 < Re s close to 0.
    """
    stride = 1 if parity == PARITY_COMBINED else 2
    rate = stride * s.real * field.log_eps
    if rate <= 0:
        raise OutOfRegionError(f"direct series diverges at Re s = {s.real}")
    need = int(math.ceil(-math.log(tol * 0.1) / rate)) + 8
    if need > _MAX_DIRECT_TERMS:
        raise TooSlowConvergenceError(need, _MAX_DIRECT_TERMS)
    return max(need, 12)


def zeta_direct(
    field: QuadraticField,
    s: complex,
    parity: str = PARITY_COMBINED,
    n_max: int = 200,
) -> ZetaEvaluation:
    """Partial sum of the defining Dirichlet series (Re s > 0 only).

    parity selects which indices enter: odd -> F(1), F(3), ...; even ->
    F(2), F(4), ...; combined -> every F(n), n >= 1.  Sums n_max terms and
    attaches a geometric tail bound from the growth F(n+stride)/F(n) -> eps^stride.
    The logs of F(n) come from the field's table, so repeated calls redo no
    big-integer work.
    """
    s = complex(s)
    if s.real <= 0:
        raise OutOfRegionError(f"direct series needs Re s > 0, got {s.real}")
    if parity not in PARITIES:
        raise ValueError(f"unknown parity {parity!r}")
    stride = 1 if parity == PARITY_COMBINED else 2
    start = 1 if parity != PARITY_EVEN else 2

    count = max(n_max, 1)
    last = start + stride * (count - 1)
    logs = log_fib_upto(field, last)[start - 1:last:stride]
    neg_s = -s
    total = 0j
    for log_f in logs:
        total += cmath.exp(neg_s * log_f)
    if count > 1:
        ratio = math.exp(-s.real * (logs[-1] - logs[-2]))
    else:
        ratio = math.exp(-stride * s.real * field.log_eps)
    ratio = max(ratio, math.exp(-stride * s.real * field.log_eps))
    last_term = math.exp(-s.real * logs[-1])
    tail = last_term * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return ZetaEvaluation(total, METHOD_DIRECT, count, SeriesTail(tail, True))
