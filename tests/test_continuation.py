import cmath
import math
import random

import pytest

from fibzeta import (
    NormMinusOneError,
    NormPlusOneError,
    OutOfRegionError,
    PoleProximityError,
    Settings,
    fib,
    make_field,
    nearest_lattice_pole,
    sequence_terms,
    zeta_combined_binomial,
    zeta_direct,
    zeta_even_binomial,
    zeta_norm_plus_one,
    zeta_odd_binomial,
)

F5 = make_field(5)
F3 = make_field(3)
F10 = make_field(10)
F13 = make_field(13)


def direct_sum(field, s, parity, terms):
    """Raw reference summation straight off the integer sequence."""
    vals = [t.fib for t in sequence_terms(field, 2 * terms + 2)]
    if parity == "odd":
        indices = range(1, 2 * terms, 2)
    elif parity == "even":
        indices = range(2, 2 * terms + 1, 2)
    else:
        indices = range(1, terms + 1)
    return sum(cmath.exp(-complex(s) * math.log(vals[i])) for i in indices)


# ---------------------------------------------------------------------- direct

def test_direct_odd_d5_at_two():
    ev = zeta_direct(F5, 2.0, "odd", 40)
    # 1 + 1/4 + 1/25 + 1/169 + ... (squares of 1, 2, 5, 13, ...)
    assert abs(ev.value - 1.2969300248114331) < 1e-14
    assert ev.tail_bound < 1e-30
    assert ev.terms_used == 40
    assert ev.tail.rigorous


def test_direct_even_d10_at_one():
    ev = zeta_direct(F10, 1.0, "even", 30)
    assert abs(ev.value - (1.0 / 6 + 1.0 / 228 + 1.0 / fib(F10, 6))) < 1e-5
    assert abs(ev.value - 0.17117125554252853) < 1e-13


def test_direct_out_of_region():
    with pytest.raises(OutOfRegionError):
        zeta_direct(F5, -1.0, "odd", 10)
    with pytest.raises(OutOfRegionError):
        zeta_direct(F5, complex(0.0, 3.0), "even", 10)


# -------------------------------------------------------------------- binomial

def test_odd_binomial_matches_direct_d5():
    ev = zeta_odd_binomial(F5, 2.0, tol=1e-13)
    ref = direct_sum(F5, 2.0, "odd", 50)
    assert abs(ev.value - ref) < 1e-12


def test_odd_binomial_trivial_zero_at_minus_one():
    ev = zeta_odd_binomial(F5, -1.0)
    assert abs(ev.value) < 1e-12


def test_odd_binomial_matches_direct_d10_at_one():
    ev = zeta_odd_binomial(F10, 1.0, tol=1e-13)
    ref = direct_sum(F10, 1.0, "odd", 30)
    assert abs(ev.value - ref) < 1e-10


def test_even_binomial_matches_direct_d5():
    ev = zeta_even_binomial(F5, 2.0, tol=1e-13)
    ref = direct_sum(F5, 2.0, "even", 55)
    assert abs(ev.value - ref) < 1e-10
    assert abs(ev.value - 1.1293907263558080) < 1e-12


def test_even_binomial_exact_at_minus_one():
    ev = zeta_even_binomial(F5, -1.0)
    assert abs(ev.value - (-1.0)) < 1e-12


def test_combined_binomial_reciprocal_fibonacci_constant():
    ev = zeta_combined_binomial(F5, 1.0, tol=1e-14)
    ref = direct_sum(F5, 1.0, "combined", 100)
    assert abs(ev.value - ref) < 1e-9
    assert abs(ev.value - 3.3598856662431776) < 1e-9


def test_combined_equals_odd_plus_even():
    rng = random.Random(424242)
    checked = 0
    while checked < 100:
        s = complex(rng.uniform(-6, 4), rng.uniform(-10, 10))
        if nearest_lattice_pole(F5, s)[3] <= 0.05:
            continue
        odd = zeta_odd_binomial(F5, s, tol=1e-13)
        even = zeta_even_binomial(F5, s, tol=1e-13)
        comb = zeta_combined_binomial(F5, s, tol=1e-13)
        allowed = odd.tail_bound + even.tail_bound + comb.tail_bound + 1e-9
        assert abs(comb.value - (odd.value + even.value)) < allowed
        checked += 1


def test_golden_ratio_specialization_termwise():
    """At D=5 the combined series is the classical golden-ratio formula
    5^(s/2) sum_k C(-s,k) / (phi^(s+2k) + (-1)^(k+1)): evaluate it inline
    and compare term counts aside, values to near machine precision."""
    phi = (1 + math.sqrt(5)) / 2
    rng = random.Random(77)
    for _ in range(20):
        s = complex(rng.uniform(-3, 3), rng.uniform(-6, 6))
        if nearest_lattice_pole(F5, s, "combined")[3] <= 0.1:
            continue
        coeff = 1.0 + 0j
        acc = 0j
        for k in range(120):
            acc += coeff / (phi ** (s + 2 * k) + (-1) ** (k + 1))
            coeff = coeff * (-s - k) / (k + 1)
        inline = 5 ** (s / 2) * acc
        ev = zeta_combined_binomial(F5, s, tol=1e-14)
        assert abs(ev.value - inline) <= 1e-12 * max(abs(inline), 1.0)


def test_region_consistency_binomial_vs_direct():
    """Binomial evaluations track the direct series throughout Re s in [0.2, 4]."""
    from fibzeta.continuation import direct_terms_for

    rng = random.Random(55)
    for _ in range(25):
        s = complex(rng.uniform(0.2, 4.0), rng.uniform(-8.0, 8.0))
        for parity, fun in (("odd", zeta_odd_binomial), ("even", zeta_even_binomial)):
            b = fun(F5, s, tol=1e-13)
            d = zeta_direct(F5, s, parity, direct_terms_for(F5, s, 1e-13, parity))
            allowed = max(b.tail_bound + d.tail_bound, 1e-10)
            assert abs(b.value - d.value) <= allowed


def test_denominator_factorization_identity():
    """eps^(2s+4k) - 1 factors as (eps^(s+2k) - 1)(eps^(s+2k) + 1) at every
    term actually evaluated (checked in the overflow-free exponent range)."""
    log_eps = F5.log_eps
    rng = random.Random(3)
    for _ in range(25):
        s = complex(rng.uniform(-4, 4), rng.uniform(-8, 8))
        for k in range(0, 40):
            z = (s + 2 * k) * log_eps
            if abs(z.real) > 150:
                break
            lhs = cmath.exp(2 * z) - 1
            rhs = (cmath.exp(z) - 1) * (cmath.exp(z) + 1)
            if abs(lhs) > 1e-8:
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# ----------------------------------------------------------------- norm +1 path

def test_norm_plus_one_d3():
    ref2 = direct_sum(F3, 2.0, "combined", 40)
    ev2 = zeta_norm_plus_one(F3, 2.0, tol=1e-13)
    assert abs(ev2.value - ref2) < 1e-10
    ref4 = direct_sum(F3, 4.0, "combined", 30)
    ev4 = zeta_norm_plus_one(F3, 4.0, tol=1e-13)
    assert abs(ev4.value - ref4) < 1e-10


def test_norm_plus_one_d7():
    f7 = make_field(7)
    assert f7.norm_eps == 1
    ev = zeta_norm_plus_one(f7, 2.0, tol=1e-13)
    ref = direct_sum(f7, 2.0, "combined", 30)
    assert abs(ev.value - ref) < 1e-10


def test_norm_plus_one_rejects_norm_minus_one_field():
    with pytest.raises(NormMinusOneError):
        zeta_norm_plus_one(F5, 2.0)


def test_split_methods_reject_norm_plus_one_field():
    for fun in (zeta_odd_binomial, zeta_even_binomial, zeta_combined_binomial):
        with pytest.raises(NormPlusOneError):
            fun(F3, 2.0)


def test_direct_allows_norm_plus_one_combined():
    ev = zeta_direct(F3, 2.0, "combined", 30)
    assert abs(ev.value - direct_sum(F3, 2.0, "combined", 30)) < 1e-15


# ------------------------------------------------------------------ pole guard

def test_pole_proximity_raised_at_origin():
    with pytest.raises(PoleProximityError) as exc:
        zeta_odd_binomial(F5, complex(1e-5, 0.0))
    assert exc.value.k == 0 and exc.value.m == 0


def test_pole_proximity_at_imaginary_lattice_point():
    s0 = complex(0.0, math.pi / F5.log_eps)
    with pytest.raises(PoleProximityError) as exc:
        zeta_even_binomial(F5, s0 + 1e-6)
    assert (exc.value.k, exc.value.m) == (0, 1)


def test_combined_evaluates_at_cancelled_pole():
    # k=0, m=1 cancels in the combined function; the split ones blow up there
    s0 = complex(0.0, math.pi / F5.log_eps)
    ev = zeta_combined_binomial(F5, s0, tol=1e-12)
    assert abs(ev.value) < 10.0  # finite, ordinary value


def test_simple_pole_signature():
    """|Z(s0 + delta e^(i theta)) * delta| is nearly direction-independent
    at a simple pole, for lattice points with k <= 2, |m| <= 2."""
    delta = 1e-3
    log_eps = F5.log_eps
    for k in range(3):
        for m in range(-2, 3):
            s0 = complex(-2.0 * k, math.pi * m / log_eps)
            mags = []
            for theta in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
                s = s0 + delta * cmath.exp(1j * theta)
                ev = zeta_odd_binomial(F5, s, tol=1e-12, settings=Settings(pole_guard_radius=delta / 4))
                mags.append(abs(ev.value) * delta)
            assert max(mags) / min(mags) < 1.05, (k, m)


def test_nearest_pole_distance_reported():
    ev = zeta_odd_binomial(F5, complex(-1.0, 0.5))
    loc, k, m, dist = nearest_lattice_pole(F5, complex(-1.0, 0.5))
    assert ev.nearest_pole_distance == pytest.approx(dist)
    assert dist > 0.4
