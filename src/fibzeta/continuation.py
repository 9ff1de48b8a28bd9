"""Binomial-series continuations of the odd / even / combined zeta functions.

For a norm -1 unit the odd- and even-indexed series continue to all of C as

    Z_odd(s)  = q^(s/2) sum_k C(-s,k) eps^(s+2k) / (eps^(2s+4k) - 1)
    Z_even(s) = q^(s/2) sum_k C(-s,k) (-1)^k / (eps^(2s+4k) - 1)

and their sum collapses to q^(s/2) sum_k C(-s,k) / (eps^(s+2k) + (-1)^(k+1)).
Each summand is rewritten in terms of u = eps^(-(s+2k)) so no intermediate
can overflow; the k-sum converges geometrically for every s off the pole
lattice s = -2k + pi i m / log eps.  A norm +1 zeta is Z_even of eps^(1/2).

The route splits each series at an index n0, as Euler-Maclaurin splits
zeta: the terms F(n)^(-s) with n < n0 are summed directly, and only the
tail n >= n0 is expanded binomially.  Its k-th term gains the factor
eps^(-2k n0), so with n0 chosen from |s| the k-terms fall from k = 0 and
do not cancel; n0 = 1 (odd) or 2 (even) is the unsplit series.  Both sides
are meromorphic and agree for large Re s, so the split holds on all of C.

The binomial evaluators are plain series of (field, s, tol), zeta_direct of
(field, s, parity, n_max): each returns one flat record of its value, terms
used, tail bound and rigour.  dispatch.evaluate checks the unit norm, guards
the pole lattice and fills in the distance to it.  A binomial series
refuses on its own only a real-axis pole s = -2k itself, to double
precision, where a denominator 1 - u^2 or 1 - u is exactly 0: it raises
PoleProximityError there at every k if split (as is a norm +1 field's
combined series), at even k if combined.  What does not depend on s is
formed once per field and read from it: log q (QuadraticField.log_q), and
eta^(-2), eta^(-4) and the pole spacing pi / log eta (HalfUnit).  The
binomial route builds its record by tuple.__new__, and nearest_lattice_pole
settles its common case, one clearly nearer lattice line on each axis,
inline.
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
# the log of the largest head term the split allows left of Re s = 0
_LOG_HEAD_CAP = math.log(100.0)
# the smallest subnormal double, the rounding step of a q^(s/2) below 2^-1022
_SUBNORMAL_STEP = 2.0**-1074
# the k-sum checks its running total for inf and NaN once per this many terms
_BINOMIAL_CHECK_STRIDE = 1000
# the factor a FactorOverflowError names where the binomial k-sum leaves double range
_K_SUM_TERM = "a term of the k-sum"
_MAX_DIRECT_TERMS = 100_000


class ZetaEvaluation(NamedTuple):
    """One evaluation: an immutable record.  tail_bound estimates the
    truncation error, and tail_rigorous=False marks it a calibrated model.
    A route leaves the pole distance NaN; dispatch.evaluate returns the
    record with it filled in."""

    value: complex
    method: str
    terms_used: int
    tail_bound: float
    tail_rigorous: bool
    nearest_pole_distance: float = math.nan


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
    re_s, im_s = s.real, s.imag
    spacing = field.half_unit.pole_spacing
    k = math.floor(-0.5 * re_s)
    if k < 0:
        k = 0
    m = math.floor(im_s / spacing)
    # the distances to the lattice lines k, k + 1 and m, m + 1 around s
    k_lo, k_hi = abs(re_s + 2.0 * k), abs(re_s + 2.0 * (k + 1))
    m_lo, m_hi = abs(im_s - m * spacing), abs(im_s - (m + 1) * spacing)
    if ((k_hi - k_lo > 1e-9 * k_hi or k_lo - k_hi > 1e-9 * k_lo)
            and (m_hi - m_lo > 1e-9 * m_hi or m_lo - m_hi > 1e-9 * m_lo)):
        # one line clearly nearer on each axis (_nearer_lines gives one index)
        if k_lo > k_hi:
            k += 1
        if m_lo > m_hi:
            m += 1
        if lattice != LATTICE_COMBINED or (k + m) % 2 == 0:
            # -2 * k in integers, so that k = 0 gives the real part +0.0
            loc = complex(-2 * k, m * spacing)
            return loc, k, m, abs(s - loc)
        cands = _neighbours(k, m)
    else:
        ks, ms = _nearer_lines(k, k_lo, k_hi), _nearer_lines(m, m_lo, m_hi)
        cands = [(k, m) for k in ks for m in ms]
        if lattice == LATTICE_COMBINED:
            cands = sorted({c for k, m in cands
                            for c in ([(k, m)] if (k + m) % 2 == 0 else _neighbours(k, m))})
    best = None
    for k, m in cands:
        if k < 0:
            continue
        loc = complex(-2 * k, m * spacing)
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


def _dirichlet_sum(neg_s: complex, logs) -> complex:
    """sum of exp(-s log F(n)) over the given logs: the loop of the direct
    series, which the binomial head shares."""
    total = 0j
    for log_f in logs:
        total += cmath.exp(neg_s * log_f)
    return total


def _q_power(field: QuadraticField, s: complex) -> complex:
    """q^(s/2), the prefactor shared by the binomial, Poisson and residue formulas."""
    return cmath.exp(0.5 * s * field.log_q)


def _split_index(s: complex, abs_s: float, first: int, stride: int, log_eta: float) -> int:
    """n0 of the split binomial series (see _binomial_sum): the first index
    first + j stride at or past log(10 |s|) / (2 log eta), or past
    log(100) / (-Re s log eta) where that is nearer.  abs_s is |s|."""
    if abs_s <= 0.1:
        return first
    reach = math.log(10.0 * abs_s) / (2.0 * log_eta)
    growth = -s.real * log_eta  # the log of the head's growth per index
    if growth * reach > _LOG_HEAD_CAP:
        reach = _LOG_HEAD_CAP / growth
    return first + stride * math.ceil((reach - first) / stride) if reach > first else first


def _binomial_sum(
    field: QuadraticField, s: complex, tol: float, kind: str
) -> tuple[complex, int, float]:
    """The split series of one kind: (value, terms, tail bound).

    The indices n of the kind (odd, even, or all for combined; for a norm +1
    field the even indices 2n of eta = eps^(1/2), F(n) standing at 2n) split
    at n0.  The head, n < n0, is the direct sum of exp(-s log F(n)) read from
    the field's log_fib_upto table.  The tail, n >= n0, is q^(s/2) times a
    binomial k-sum in u = eta^(-(s+2k)):

      odd, even: sum_k C(-s,k) sigma^k u^n0 / (1 - u^2)
      combined:  sum_k C(-s,k) sigma^k u^n0 / (1 - (-1)^k u)

    with sigma = -1 for the even kind and for the combined kind at even n0,
    else +1.  At the first index of the kind the head is empty and this is
    the unsplit series; at a later n0 term k gains the factor
    eta^(-2k n0), so the k-terms fall from k = 0 once |s| eta^(-2 n0) < 1.
    n0 is the first index of the kind at or past log(10 |s|) / (2 log eta),
    where |s| eta^(-2 n0) <= 0.1.  Left of Re s = 0 the head terms
    F(n)^(-Re s) grow with n, so n0 - stride also stays below
    log(100) / (-Re s log eta): no head term passes about 100, which bounds
    the cancellation between head and tail.

    w = sigma^k u^n0 and u are geometric in k with the real ratios
    sigma eta^(-2 n0) and eta^(-2): each is formed by exp at k = 0 and stepped
    by one real multiplication a term.  Each step rounds, so the check
    re-forms both by exp every _BINOMIAL_CHECK_STRIDE terms.  Near a lattice
    pole -2k* + pi i m / log eta the denominators of term k* = round(-Re s / 2)
    nearly vanish and would magnify that drift, so the first check comes at
    k*, and that term sees u as exp forms it.  At a pole on the real axis exp
    makes that u exactly 1 and a denominator 1 - u^2 (1 - u for the combined
    kind at even k*) exactly 0.  The sum tests for this before its loop and
    raises ZeroDivisionError, because by term k* its partial sums may already
    have overflowed.

    From k* + 1 on |u| < 1 falls, and term k + 1 is at most r_k times term k:
    r_k = (|s| + k) / (k + 1) eta^(-2 n0) (|s| taken at least 1) times
    (1 + a) / (1 - a eta^(-2p)), which bounds the change of the denominators
    with a = |u_(k*+1)|^p, p = 2 (p = 1 for the combined kind).  r_k falls
    in k, so from the first k past k* where it is below 1 the stop test
    bounds the tail by the geometric series of r_k and compares it with tol
    times the whole value, head / q^(s/2) plus the k-sum so far.  Once every
    _BINOMIAL_CHECK_STRIDE terms the k-sum is tested: where a term has left
    double range every later one is inf or NaN and the stop test can never
    pass, so the sum raises FactorOverflowError then instead of running to
    its cap.  Before its loop it raises FactorOverflowError naming q^(s/2)
    where that factor overflows, or is so far subnormal that its rounding
    alone passes tol.

    The domain is that of the unsplit series, whose stop test began at
    k = ceil(|s|) + 5: an |s| that puts this past the 100,000-term cap is
    refused before the loop.
    """
    half_unit = field.half_unit
    log_eta = half_unit.log_eta
    split = kind != "combined"
    abs_s = abs(s)
    if abs_s > _MAX_BINOMIAL_TERMS - 5:
        raise TooSlowConvergenceError(math.ceil(abs_s) + 5, _MAX_BINOMIAL_TERMS)
    first = 2 if kind == "even" else 1
    stride = 2 if split else 1
    n0 = _split_index(s, abs_s, first, stride, log_eta)
    neg_s = -s
    u = cmath.exp(neg_s * log_eta)  # an OverflowError here comes before any pole test
    k_pole = round(-0.5 * s.real) if s.real < 0.0 else 0
    if (s.imag * log_eta == 0.0 and (split or k_pole % 2 == 0)
            and cmath.exp(-(s + 2.0 * k_pole) * log_eta) == 1.0):
        raise ZeroDivisionError("s is the lattice pole -2k to double precision")
    try:
        scale = _q_power(field, s)
    except OverflowError:
        raise FactorOverflowError("q^(s/2)", s) from None
    if abs(scale) * tol < _SUBNORMAL_STEP:
        # q^(s/2) is subnormal, and its rounding alone is more than tol
        raise FactorOverflowError("q^(s/2)", s)
    if n0 > first:
        # the head's F-indices: those of the kind below n0, or for a norm +1
        # field the n with 2n below n0
        per = 1 if field.is_norm_minus_one else 2
        logs = log_fib_upto(field, n0 // per)[first // per - 1:n0 // per - 1:stride // per]
        head = _dirichlet_sum(neg_s, logs)
    else:
        logs, head = (), 0j
    head_scaled = head / scale
    u_step = half_unit.inv_eta2
    decay = math.exp(-2.0 * n0 * log_eta)
    flip = kind == "even" or (not split and n0 % 2 == 0)
    w_step = -decay if flip else decay
    power = 2 if split else 1
    a = math.exp(-power * (s.real + 2.0 * k_pole + 2.0) * log_eta)
    shrink = decay * (1.0 + a) / (1.0 - a * (half_unit.inv_eta4 if split else u_step))
    abs_s1 = abs_s if abs_s > 1.0 else 1.0
    # the first k past k* where r_k < 1
    k_test = math.floor((abs_s1 * shrink - 1.0) / (1.0 - shrink)) + 2
    if k_test <= k_pole:
        k_test = k_pole + 1
    w = cmath.exp(n0 * neg_s * log_eta)
    coeff: complex = 1.0 + 0j
    total: complex = 0j
    k = 0
    sign = 1  # (-1)^k, for the combined denominators
    # the first check comes just before term k_pole, so that u is formed by exp there
    check_at = k_pole - 1 if k_pole else _BINOMIAL_CHECK_STRIDE
    while True:
        if split:
            term = coeff * w / (1.0 - u * u)
        elif sign > 0:
            term = coeff * w / (1.0 - u)
        else:
            term = coeff * w / (1.0 + u)
        total += term
        k1 = k + 1.0
        if k >= k_test:
            ratio = (abs_s1 + k) / k1 * shrink
            tail = abs(term) * ratio / (1.0 - ratio)
            if tail <= tol * abs(head_scaled + total):
                return head + scale * total, len(logs) + k + 1, tail * abs(scale)
        coeff = coeff * (neg_s - k) / k1
        u = u * u_step
        w = w * w_step
        k += 1
        sign = -sign
        if k > check_at:
            # an inf or NaN term leaves the sum so for good
            if not cmath.isfinite(total):
                raise FactorOverflowError(_K_SUM_TERM, s)
            if k > _MAX_BINOMIAL_TERMS:
                raise TooSlowConvergenceError(float(k), _MAX_BINOMIAL_TERMS)
            check_at = min(check_at + _BINOMIAL_CHECK_STRIDE, _MAX_BINOMIAL_TERMS)
            # re-anchor the stepped u and w
            u = cmath.exp(-(s + 2.0 * k) * log_eta)
            w = cmath.exp(-n0 * (s + 2.0 * k) * log_eta)
            if flip and k % 2:
                w = -w


def _binomial_eval(field: QuadraticField, s: complex, tol: float, kind: str) -> ZetaEvaluation:
    s = complex(s)
    try:
        value, terms, tail = _binomial_sum(field, s, tol, kind)
    except ZeroDivisionError:
        # s is a lattice pole -2k to double precision, where a denominator
        # 1 -+ u is exactly zero, however small the guard radius
        lattice = LATTICE_COMBINED if kind == "combined" else LATTICE_SPLIT
        raise PoleProximityError(s, *nearest_lattice_pole(field, s, lattice)) from None
    except OverflowError:
        raise FactorOverflowError(_K_SUM_TERM, s) from None
    if not cmath.isfinite(value):
        # u^2 overflowed to inf, and the summand became inf / inf
        raise FactorOverflowError(_K_SUM_TERM, s)
    # the record built by tuple.__new__, as dispatch.evaluate builds its
    # own: the named tuple's Python-level __new__ costs more than the fields
    return tuple.__new__(ZetaEvaluation, (value, METHOD_BINOMIAL, terms, tail, True, math.nan))


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
    total = _dirichlet_sum(-s, logs)
    if count > 1:
        ratio = math.exp(-s.real * (logs[-1] - logs[-2]))
    else:
        ratio = math.exp(-stride * s.real * field.log_eps)
    ratio = max(ratio, math.exp(-stride * s.real * field.log_eps))
    last_term = math.exp(-s.real * logs[-1])
    tail = last_term * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return ZetaEvaluation(total, METHOD_DIRECT, count, tail, True)
