"""Binomial-series continuations of the odd / even / combined zeta functions.

For a norm -1 unit the odd- and even-indexed series continue to all of C as

    Z_odd(s)  = q^(s/2) sum_k C(-s,k) eps^(s+2k) / (eps^(2s+4k) - 1)
    Z_even(s) = q^(s/2) sum_k C(-s,k) (-1)^k / (eps^(2s+4k) - 1)

and their sum collapses to q^(s/2) sum_k C(-s,k) / (eps^(s+2k) + (-1)^(k+1)).
Each summand is rewritten in terms of u = eps^(-(s+2k)) so no intermediate
can overflow; the k-sum converges geometrically for every s off the pole
lattice s = -2k + pi i m / log eps.

All evaluators are pure functions of (field, s, tol) and record the terms
used, a tail bound, and the distance to the nearest lattice pole.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .config import Settings, default_settings
from .errors import (
    NormMinusOneError,
    OutOfRegionError,
    PoleProximityError,
    TooSlowConvergenceError,
)
from .quadfield import QuadraticField, iter_sequence

METHOD_DIRECT = "direct"
METHOD_BINOMIAL = "binomial"
METHOD_POISSON = "poisson"
METHOD_SHIFTED = "shifted_convolution"
METHODS = (METHOD_DIRECT, METHOD_BINOMIAL, METHOD_POISSON, METHOD_SHIFTED)

PARITY_ODD = "odd"
PARITY_EVEN = "even"
PARITY_COMBINED = "combined"
PARITIES = (PARITY_ODD, PARITY_EVEN, PARITY_COMBINED)

# pole lattices: "split" for Z_odd/Z_even, "combined" for their sum,
# "plus_one" for the norm +1 full zeta
LATTICE_SPLIT = "split"
LATTICE_COMBINED = "combined"
LATTICE_PLUS_ONE = "plus_one"

_MAX_BINOMIAL_TERMS = 100_000


@dataclass(frozen=True)
class SeriesTail:
    """Truncation-error estimate; rigorous=False marks a calibrated model."""

    bound: float
    rigorous: bool


@dataclass(frozen=True)
class ZetaEvaluation:
    value: complex
    method: str
    terms_used: int
    tail: SeriesTail
    nearest_pole_distance: float

    @property
    def tail_bound(self) -> float:
        return self.tail.bound


def nearest_lattice_pole(
    field: QuadraticField, s: complex, lattice: str = LATTICE_SPLIT
) -> tuple[complex, int, int, float]:
    """Nearest pole (location, k, m, distance) of the requested lattice.

    split:    s0 = -2k + pi i m / log eps,   k >= 0, m in Z
    combined: same points restricted to m + k even
    plus_one: s0 = -2k + 2 pi i m / log eps
    """
    s = complex(s)
    log_eps = field.log_eps
    spacing = math.pi / log_eps
    if lattice == LATTICE_PLUS_ONE:
        spacing = 2.0 * math.pi / log_eps
    k_mid = max(0, round(-s.real / 2.0))
    m_mid = round(s.imag / spacing)
    best = None
    for k in range(max(0, k_mid - 1), k_mid + 2):
        for m in range(m_mid - 2, m_mid + 3):
            if lattice == LATTICE_COMBINED and (m + k) % 2 != 0:
                continue
            loc = complex(-2.0 * k, m * spacing)
            dist = abs(s - loc)
            if best is None or dist < best[3]:
                best = (loc, k, m, dist)
    assert best is not None
    return best


def check_pole_guard(
    field: QuadraticField,
    s: complex,
    lattice: str,
    guard: float,
) -> float:
    """Distance to the nearest lattice pole; raises inside the guard radius."""
    loc, k, m, dist = nearest_lattice_pole(field, s, lattice)
    if dist <= guard:
        raise PoleProximityError(s, loc, k, m, dist)
    return dist


def _binomial_sum(field: QuadraticField, s: complex, tol: float, kind: str) -> tuple[complex, int, float]:
    """Shared k-sum; returns (sum, terms, tail) without the q^(s/2) factor.

    kind picks the summand shape, written via u = eps^(-(s+2k)):
      odd:      u / (1 - u^2)
      even:     (-1)^k u^2 / (1 - u^2)
      combined: u / (1 - u) for even k, u / (1 + u) for odd k
      plus_one: (-1)^k u / (1 - u)
    """
    log_eps = field.log_eps
    decay = math.exp(-2.0 * log_eps)
    abs_s = abs(s)
    k_min = int(math.ceil(abs_s)) + 5
    coeff: complex = 1.0 + 0j
    total: complex = 0j
    k = 0
    while True:
        u = cmath.exp(-(s + 2.0 * k) * log_eps)
        if kind == "odd":
            term = coeff * u / (1.0 - u * u)
        elif kind == "even":
            term = coeff * ((-1) ** k) * u * u / (1.0 - u * u)
        elif kind == "combined":
            term = coeff * u / (1.0 - u) if k % 2 == 0 else coeff * u / (1.0 + u)
        else:  # plus_one
            term = coeff * ((-1) ** k) * u / (1.0 - u)
        total += term
        ratio = (abs_s + k) / (k + 1.0) * decay
        if k >= k_min and ratio < 1.0:
            tail = abs(term) * ratio / (1.0 - ratio)
            if tail <= tol * max(abs(total), 1e-30) or abs(term) < 1e-280:
                return total, k + 1, tail
        coeff = coeff * (-s - k) / (k + 1.0)
        k += 1
        if k > _MAX_BINOMIAL_TERMS:
            raise TooSlowConvergenceError(float(k), _MAX_BINOMIAL_TERMS)


def _q_power(field: QuadraticField, s: complex) -> complex:
    """q^(s/2), the prefactor shared by the binomial, Poisson and residue formulas."""
    return cmath.exp(0.5 * s * math.log(field.q))


def _binomial_eval(
    field: QuadraticField,
    s: complex,
    tol: float,
    kind: str,
    lattice: str,
    settings: Settings | None,
) -> ZetaEvaluation:
    settings = settings or default_settings()
    s = complex(s)
    dist = check_pole_guard(field, s, lattice, settings.pole_guard_radius)
    total, terms, tail = _binomial_sum(field, s, tol, kind)
    scale = _q_power(field, s)
    return ZetaEvaluation(
        value=scale * total,
        method=METHOD_BINOMIAL,
        terms_used=terms,
        tail=SeriesTail(bound=tail * abs(scale), rigorous=True),
        nearest_pole_distance=dist,
    )


def zeta_odd_binomial(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-12,
    settings: Settings | None = None,
) -> ZetaEvaluation:
    """Odd-indexed zeta sum_{n>=1} F(2n-1)^(-s), continued to C (norm -1 only)."""
    field.require_norm_minus_one()
    return _binomial_eval(field, s, tol, "odd", LATTICE_SPLIT, settings)


def zeta_even_binomial(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-12,
    settings: Settings | None = None,
) -> ZetaEvaluation:
    """Even-indexed zeta sum_{n>=1} F(2n)^(-s), continued to C (norm -1 only)."""
    field.require_norm_minus_one()
    return _binomial_eval(field, s, tol, "even", LATTICE_SPLIT, settings)


def zeta_combined_binomial(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-12,
    settings: Settings | None = None,
) -> ZetaEvaluation:
    """Full zeta sum_{n>=1} F(n)^(-s) via the collapsed single series.

    Equals zeta_odd_binomial + zeta_even_binomial; only lattice points with
    m + k even survive as poles, so it evaluates cleanly at the other half.
    """
    field.require_norm_minus_one()
    return _binomial_eval(field, s, tol, "combined", LATTICE_COMBINED, settings)


def zeta_norm_plus_one(
    field: QuadraticField,
    s: complex,
    tol: float = 1e-12,
    settings: Settings | None = None,
) -> ZetaEvaluation:
    """Full zeta for a norm +1 field, where F(n) = (eps^n - eps^-n)/sqrt(q).

    Same geometric collection as the even-indexed case but with unit index
    stride: q^(s/2) sum_k C(-s,k) (-1)^k / (eps^(s+2k) - 1).  Poles sit at
    s = -2k + 2 pi i m / log eps.
    """
    if field.is_norm_minus_one:
        raise NormMinusOneError(
            f"D={field.D} has a norm -1 unit; use the odd/even split instead"
        )
    return _binomial_eval(field, s, tol, "plus_one", LATTICE_PLUS_ONE, settings)


def direct_terms_for(field: QuadraticField, s: complex, tol: float, parity: str) -> int:
    """Number of direct-series terms for a relative tail below tol."""
    stride = 1 if parity == PARITY_COMBINED else 2
    rate = stride * s.real * field.log_eps
    if rate <= 0:
        raise OutOfRegionError(f"direct series diverges at Re s = {s.real}")
    need = int(math.ceil(-math.log(tol * 0.1) / rate)) + 8
    return min(max(need, 12), 100_000)


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
    """
    s = complex(s)
    if s.real <= 0:
        raise OutOfRegionError(f"direct series needs Re s > 0, got {s.real}")
    if parity not in PARITIES:
        raise ValueError(f"unknown parity {parity!r}")
    stride = 1 if parity == PARITY_COMBINED else 2
    start = 1 if parity != PARITY_EVEN else 2

    total = 0j
    count = 0
    prev_f = None
    last_f = None
    gen = iter_sequence(field)
    next(gen)  # skip index 0
    for term in gen:
        idx = term.index
        if idx < start or (idx - start) % stride != 0:
            continue
        total += cmath.exp(-s * math.log(term.fib))
        prev_f, last_f = last_f, term.fib
        count += 1
        if count >= n_max:
            break
    assert last_f is not None
    if prev_f is not None:
        ratio = math.exp(-s.real * (math.log(last_f) - math.log(prev_f)))
    else:
        ratio = math.exp(-stride * s.real * field.log_eps)
    ratio = max(ratio, math.exp(-stride * s.real * field.log_eps))
    last_term = math.exp(-s.real * math.log(last_f))
    tail = last_term * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    dist = nearest_lattice_pole(
        field,
        s,
        LATTICE_PLUS_ONE if not field.is_norm_minus_one else LATTICE_SPLIT,
    )[3]
    return ZetaEvaluation(
        value=total,
        method=METHOD_DIRECT,
        terms_used=count,
        tail=SeriesTail(bound=tail, rigorous=True),
        nearest_pole_distance=dist,
    )
