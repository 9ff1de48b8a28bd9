import cmath
import math
from fractions import Fraction

import pytest

from fibzeta import (
    ContourThroughPoleError,
    NormPlusOneError,
    OutOfRegionError,
    Settings,
    fib_upto,
    make_field,
    pole_lattice,
    r1,
    residue_numeric,
    shifted_convolution_even,
    shifted_convolution_odd,
    special_value_even_minus_one,
    zeta_combined_binomial,
    zeta_direct,
    zeta_even_binomial,
    zeta_even_poisson,
    zeta_odd_binomial,
)
from fibzeta.crosscheck import SHIFTED_CONV_BOUND, Surd, _square_pair_support

F5 = make_field(5)
F10 = make_field(10)
# the residue contours of radius 1e-3 pass inside the default pole guard
FINE_GUARD = Settings(pole_guard_radius=1e-4)


# ---------------------------------------------------------------- pole lattice

def test_pole_lattice_counts_and_locations():
    poles = pole_lattice(F5, 1, 1, "odd")
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
        pole_lattice(make_field(3), 1, 1, "odd")


def test_residue_cancellation_iff_m_plus_k_odd():
    for p in pole_lattice(F10, 2, 3, "odd"):
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
    return zeta_odd_binomial(F5, s, tol=1e-12, settings=FINE_GUARD).value


def test_numeric_residue_at_origin():
    res = residue_numeric(zfun_odd, 0j, 1e-3)
    assert abs(res - 1.0390434606175138) < 1e-6


def test_numeric_residues_match_analytic():
    for which, fun in (("odd", zeta_odd_binomial), ("even", zeta_even_binomial)):
        for p in pole_lattice(F5, 1, 2, which):
            num = residue_numeric(
                lambda s, fun=fun: fun(F5, s, tol=1e-12, settings=FINE_GUARD).value,
                p.location,
                1e-3,
            )
            ana = p.residue_odd if which == "odd" else p.residue_even
            assert abs(num - ana) <= 1e-6 * max(1.0, abs(ana)), (which, p.k, p.m)


def test_combined_residue_vanishes_at_cancelled_point():
    # k=0, m=1: cancelled in the combined zeta
    s0 = complex(0.0, math.pi / F5.log_eps)
    res = residue_numeric(
        lambda s: zeta_combined_binomial(F5, s, tol=1e-12, settings=FINE_GUARD).value,
        s0,
        1e-3,
    )
    assert abs(res) < 1e-8


def test_even_poisson_residue_at_imaginary_pole():
    s0 = complex(0.0, math.pi / F5.log_eps)
    spec = [p for p in pole_lattice(F5, 0, 1, "even") if p.m == 1][0]
    res = residue_numeric(
        lambda s: zeta_even_poisson(F5, s, tol=1e-12, settings=FINE_GUARD).value,
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
        shifted_convolution_odd(make_field(3), 2.0, 100)


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


@pytest.mark.parametrize("d", [5, 13, 29])
@pytest.mark.parametrize("sign", [-1, 1])
def test_square_pair_support_matches_plain_isqrt_scan(d, sign):
    field = make_field(d)
    shift = sign * field.ell
    plain = []
    for t in range(1, math.isqrt(SHIFTED_CONV_BOUND) + 1):
        other = d * t * t + shift
        if other > 0 and math.isqrt(other) ** 2 == other:
            plain.append((t * t, 1))
    assert _square_pair_support(field, shift, SHIFTED_CONV_BOUND) == plain


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
