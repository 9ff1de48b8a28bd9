import cmath
import functools
import math
from fractions import Fraction

import pytest

from fibzeta import (
    ContourThroughPoleError,
    NormPlusOneError,
    OutOfRegionError,
    Settings,
    evaluate,
    fib_upto,
    make_field,
    pole_lattice,
    r1,
    residue_numeric,
    special_value_even_minus_one,
)
from fibzeta.continuation import zeta_direct, zeta_even_binomial
from fibzeta.crosscheck import (
    SHIFTED_CONV_BOUND,
    Surd,
    _square_pair_support,
    shifted_convolution_even,
    shifted_convolution_odd,
)
from fibzeta.poisson import zeta_even_poisson

F5 = make_field(5)
F10 = make_field(10)
# the residue contours of radius 1e-3 pass inside the default pole guard
FINE_GUARD = Settings(pole_guard_radius=1e-4)


# ---------------------------------------------------------------- pole lattice

def test_pole_lattice_counts_and_locations():
    poles = pole_lattice(F5, 1, 1)
    assert len(poles) == 6  # k in {0,1} x m in {-1,0,1}
    origin = [p for p in poles if p.k == 0 and p.m == 0][0]
    assert origin.location == 0
    assert abs(origin.residue_odd - 1.0390434606175138) < 1e-12
    assert abs(origin.residue_odd - 1.0 / (2.0 * F5.log_eps)) < 1e-14


def test_pole_lattice_combined_keeps_half():
    poles = pole_lattice(F5, 1, 1, "combined")
    assert {(p.k, p.m) for p in poles} == {(0, 0), (1, 1), (1, -1)}
    assert all(p.survives_in_combined for p in poles)


def test_pole_lattice_rejects_norm_plus_one():
    with pytest.raises(NormPlusOneError):
        pole_lattice(make_field(3), 1, 1)


def test_residue_cancellation_iff_m_plus_k_odd():
    for p in pole_lattice(F10, 2, 3):
        total = p.residue_odd + p.residue_even
        if (p.m + p.k) % 2 == 1:
            assert total == 0  # exact: the (-1)^m and (-1)^k factors cancel
            assert not p.survives_in_combined
        else:
            assert abs(total) > 1e-12
            assert p.survives_in_combined


def test_unit_power_identity_at_pole():
    """eps^(s0 + 2k) evaluated numerically equals (-1)^m at lattice points."""
    log_eps = F5.log_eps
    for k in range(3):
        for m in range(-3, 4):
            s0 = complex(-2.0 * k, math.pi * m / log_eps)
            val = cmath.exp((s0 + 2.0 * k) * log_eps)
            assert abs(val - (-1.0) ** m) < 1e-10


# ------------------------------------------------------------- contour residues

def zfun_odd(s):
    return evaluate(F5, s, "odd", "binomial", 1e-12, FINE_GUARD).value


def test_numeric_residue_at_origin():
    res = residue_numeric(zfun_odd, 0j, 1e-3)
    assert abs(res - 1.0390434606175138) < 1e-6


def test_numeric_residues_match_analytic():
    for which in ("odd", "even"):
        for p in pole_lattice(F5, 1, 2):
            num = residue_numeric(
                lambda s, which=which: evaluate(F5, s, which, "binomial", 1e-12, FINE_GUARD).value,
                p.location,
                1e-3,
            )
            ana = p.residue_odd if which == "odd" else p.residue_even
            assert abs(num - ana) <= 1e-6 * max(1.0, abs(ana)), (which, p.k, p.m)


def test_combined_residue_vanishes_at_cancelled_point():
    # k=0, m=1: cancelled in the combined zeta
    s0 = complex(0.0, math.pi / F5.log_eps)
    res = residue_numeric(
        lambda s: evaluate(F5, s, "combined", "binomial", 1e-12, FINE_GUARD).value,
        s0,
        1e-3,
    )
    assert abs(res) < 1e-8


def test_even_poisson_residue_at_imaginary_pole():
    s0 = complex(0.0, math.pi / F5.log_eps)
    spec = [p for p in pole_lattice(F5, 0, 1) if p.m == 1][0]
    res = residue_numeric(
        lambda s: evaluate(F5, s, "even", "poisson", 1e-12, FINE_GUARD).value,
        s0,
        1e-3,
    )
    assert abs(res - spec.residue_even) < 1e-6 * abs(spec.residue_even)


def test_contour_through_pole_detected():
    with pytest.raises(ContourThroughPoleError):
        residue_numeric(zfun_odd, 0j, 2.0, avoid=[complex(-2.0, 0.0)])


# ------------------------------------------------------- shifted convolutions

def test_shifted_convolution_odd_d5():
    sc = shifted_convolution_odd(F5, 2.0, 10_000)
    ref = zeta_direct(F5, 2.0, "odd", 40)
    assert abs(sc.value - ref.value) <= sc.tail_bound + ref.tail_bound + 1e-12
    assert sc.method == "shifted_convolution"


def test_shifted_convolution_even_d5_first_term():
    # n=1 contributes because 5*1 + 4 = 9 is a square
    sc = shifted_convolution_even(F5, 2.0, 1)
    assert abs(sc.value - 1.0) < 1e-15


def test_shifted_convolution_support_d10():
    # odd support below 10^4 is {1, 37^2}
    sc = shifted_convolution_odd(F10, 2.0, 10_000)
    assert sc.terms_used == 2
    assert abs(sc.value - (1.0 + 37.0**-2)) < 1e-15
    ref = zeta_direct(F10, 2.0, "odd", 30)
    assert abs(sc.value - ref.value) <= sc.tail_bound + ref.tail_bound


def test_shifted_convolution_even_d10():
    sc = shifted_convolution_even(F10, 2.0, 10_000)
    ref = zeta_direct(F10, 2.0, "even", 30)
    assert abs(sc.value - ref.value) <= sc.tail_bound + ref.tail_bound


def test_shifted_convolution_out_of_region():
    with pytest.raises(OutOfRegionError):
        shifted_convolution_odd(F5, -1.0, 100)


def test_shifted_convolution_rejects_norm_plus_one():
    with pytest.raises(NormPlusOneError):
        evaluate(make_field(3), 2.0, "odd", "shifted_convolution", 1e-2)


@pytest.mark.parametrize("d", [2, 5, 10, 13])
def test_support_equality_with_membership(d):
    """r1(n) r1(D n - ell) != 0 exactly at squares of odd-indexed F values."""
    field = make_field(d)
    bound = 1_000_000
    odd_squares = {t.fib**2 for t in fib_upto(field, 1000) if t.index % 2 == 1}
    found = set()
    for t in range(1, math.isqrt(bound) + 1):
        n = t * t
        if r1(n) * r1(field.D * n - field.ell) != 0:
            found.add(n)
    assert found == {n for n in odd_squares if n <= bound}


@functools.lru_cache(maxsize=None)
def _plain_isqrt_scan(d: int, sign: int) -> tuple[tuple[int, int], ...]:
    """(t^2, 1) for every t with d t^2 + sign*ell a positive square, t^2 up to
    the default bound, by isqrt on every candidate."""
    shift = sign * make_field(d).ell
    plain = []
    for t in range(1, math.isqrt(SHIFTED_CONV_BOUND) + 1):
        other = d * t * t + shift
        if other > 0 and math.isqrt(other) ** 2 == other:
            plain.append((t * t, 1))
    return tuple(plain)


# 4031^2 and 4032^2 end the scan on either side of the r = 0 class mod 4032,
# 4032^2 + 1 just past it, 10^10 - 1 in a class cut short, 1 below every class
@pytest.mark.parametrize("n_max", [1, 4031**2, 4032**2, 4032**2 + 1, 10**10 - 1,
                                   SHIFTED_CONV_BOUND])
@pytest.mark.parametrize("d", [2, 3, 5, 7, 10, 13, 29])
@pytest.mark.parametrize("sign", [-1, 1])
def test_square_pair_support_matches_plain_isqrt_scan(d, sign, n_max):
    plain = [pair for pair in _plain_isqrt_scan(d, sign) if pair[0] <= n_max]
    assert _square_pair_support(make_field(d), sign, n_max) == tuple(plain)


# repr values and term counts recorded before the scan read the residue
# tables; the support is the same, so every sum must repeat exactly:
# (D, parity, s, value, terms_used)
FROZEN_SHIFTED = [
    (2, "odd", (1+0j), (1.2416192180307242+0j), 7),
    (2, "odd", (1.5-7.25j), (1.0609882185135995-0.0744006962337139j), 7),
    (2, "odd", (2.2+3.1j), (1.0075915448976658+0.028404072912662656j), 7),
    (2, "odd", (3+8j), (1.0076110391813144-0.0024736952588899916j), 7),
    (2, "even", (1+0j), (0.600575078525269+0j), 7),
    (2, "even", (1.5-7.25j), (0.1265202278982458-0.3552330120930285j), 7),
    (2, "even", (2.2+3.1j), (-0.11819084298238346-0.18651465879331455j), 7),
    (2, "even", (3+8j), (0.09277191004352085+0.08360433856689964j), 7),
    (5, "odd", (1+0j), (1.8245069196996433+0j), 13),
    (5, "odd", (1.5-7.25j), (1.1901819641047893-0.40818589981710696j), 13),
    (5, "odd", (2.2+3.1j), (0.8886633279233115-0.157546016280057j), 13),
    (5, "odd", (3+8j), (1.100026356032023+0.08121493983948894j), 13),
    (5, "even", (1+0j), (1.5353571799458823+0j), 12),
    (5, "even", (1.5-7.25j), (0.9309900108955748+0.21411297971368645j), 12),
    (5, "even", (2.2+3.1j), (0.9229691801467156+0.02164294893047513j), 12),
    (5, "even", (3+8j), (0.9691120812153671-0.020361152892704952j), 12),
    (13, "odd", (1+0j), (1.1100924558221061+0j), 5),
    (13, "odd", (1.5-7.25j), (0.981798436216219-0.025887134453849037j), 5),
    (13, "odd", (2.2+3.1j), (1.0041280957757508-0.004790574306317835j), 5),
    (13, "odd", (3+8j), (1.0009101959421862+0.00041597742309510023j), 5),
    (13, "even", (1+0j), (0.36669213303276904+0j), 5),
    (13, "even", (1.5-7.25j), (-0.016124430678222414+0.19225953466872672j), 5),
    (13, "even", (2.2+3.1j), (-0.08616995629643548+0.0237356846892597j), 5),
    (13, "even", (3+8j), (-0.029824719490095693-0.02200404249219783j), 5),
    (3, "even", (1+0j), (1.3410507854448437+0j), 9),
    (3, "even", (1.5-7.25j), (0.90957042786141-0.06270730724318267j), 9),
    (3, "even", (2.2+3.1j), (0.9797129386127332+0.04114931009014504j), 9),
    (3, "even", (3+8j), (1.0012021644611517+0.015455840603960214j), 9),
]


@pytest.mark.parametrize("d, parity, s, value, terms", FROZEN_SHIFTED)
def test_shifted_convolution_values_repeat_bit_for_bit(d, parity, s, value, terms):
    scan = shifted_convolution_odd if parity == "odd" else shifted_convolution_even
    ev = scan(make_field(d), s)
    assert (repr(ev.value), ev.terms_used) == (repr(value), terms)


# ------------------------------------------------------------- special values

def test_exact_even_minus_one_values():
    assert special_value_even_minus_one(F5).rational == Fraction(-1)
    assert special_value_even_minus_one(F10).rational == Fraction(-1, 6)
    assert special_value_even_minus_one(make_field(2)).rational == Fraction(-1, 2)
    assert special_value_even_minus_one(make_field(13)).rational == Fraction(-1, 3)


def test_exact_even_minus_one_is_minus_f1_squared_over_f2():
    # the closed form collapses to -F(1)^2/F(2) = -b/a; for the b=1 fields
    # that is -1/F(2)
    for d in (2, 5, 10, 13, 61):
        field = make_field(d)
        val = special_value_even_minus_one(field)
        f1 = field.eps.b
        f2 = [t.fib for t in fib_upto(field, 10**12) if t.index == 2][0]
        assert val.rational == Fraction(-f1 * f1, f2)
        assert val.rational == Fraction(-field.eps.b, field.eps.a)


def test_galois_cancellation_witness():
    for d in (2, 5, 10, 13):
        val = special_value_even_minus_one(make_field(d))
        assert val.galois_sum_is_zero
        assert val.combined == val.rational  # odd part vanishes at -1
        assert val.unit_ratio.x == 0  # pure sqrt(q) multiple


def test_special_value_agrees_with_float_methods():
    for d in (2, 5, 10, 13):
        field = make_field(d)
        exact = float(special_value_even_minus_one(field).rational)
        b = zeta_even_binomial(field, -1.0, tol=1e-13).value
        p = zeta_even_poisson(field, -1.0, tol=1e-13).value
        assert abs(b - exact) < 1e-9
        assert abs(p - exact) < 1e-9


def test_special_value_rejects_norm_plus_one():
    with pytest.raises(NormPlusOneError):
        special_value_even_minus_one(make_field(3))


# ----------------------------------------------------------------------- surds

def test_surd_arithmetic():
    a = Surd(Fraction(1), Fraction(1), 5)
    b = Surd(Fraction(2), Fraction(-1), 5)
    assert (a * b) == Surd(Fraction(-3), Fraction(1), 5)
    assert (a / a) == Surd(Fraction(1), Fraction(0), 5)
    assert (a + b).is_rational
    assert float(Surd(Fraction(0), Fraction(1), 4)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        a + Surd(Fraction(1), Fraction(0), 7)


def test_surds_are_frozen_and_not_sequences():
    a = Surd(Fraction(1), Fraction(1), 5)
    with pytest.raises(AttributeError):
        a.x = Fraction(2)
    with pytest.raises(TypeError):
        2 * a  # no __rmul__: a tuple would be repeated instead
    assert a * 2 == Surd(Fraction(2), Fraction(2), 5)
