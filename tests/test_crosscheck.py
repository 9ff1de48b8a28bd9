import cmath
import functools
import math
from fractions import Fraction

import mpmath as mp
import pytest

from fibzeta import (
    DomainError,
    FactorOverflowError,
    NormPlusOneError,
    OutOfRegionError,
    evaluate,
    fib_upto,
    make_field,
    nearest_lattice_pole,
    pole_lattice,
    r1,
    residue_numeric,
    special_value,
)
from fibzeta.continuation import zeta_direct, zeta_even_binomial
from fibzeta.crosscheck import (
    SHIFTED_CONV_BOUND,
    _square_pair_support,
    shifted_convolution_even,
    shifted_convolution_odd,
)
from fibzeta.poisson import zeta_even_poisson
from fibzeta import suites

F5 = make_field(5)
F10 = make_field(10)
# the residue contours of radius 1e-3 pass inside the default pole guard
FINE_GUARD = 1e-4


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


def mp_residue(field, k, s0):
    """q^(s0/2) C(-s0, k) / (2 log eps) in mpmath at 40 digits, at the double s0."""
    with mp.workdps(40):
        s0 = mp.mpc(s0.real, s0.imag)
        log_eps = mp.log((field.eps.a + field.eps.b * mp.sqrt(field.q)) / 2)
        return mp.power(field.q, s0 / 2) * mp.binomial(-s0, k) / (2 * log_eps)


def assert_residues_match_mpmath(field, p):
    ref = complex(mp_residue(field, p.k, p.location))
    for got, sign in ((p.residue_odd, (-1) ** p.m), (p.residue_even, (-1) ** p.k)):
        assert got != 0 and cmath.isfinite(got)
        assert abs(got - sign * ref) <= 1e-11 * abs(ref), (p, ref)


@pytest.mark.parametrize("d, k, m", [(5, 300, 0), (5, 500, 0), (5, 2000, 0), (2, 500, -3),
                                     (5, 2, 1000)])
def test_analytic_residues_match_mpmath_far_down_and_far_up(d, k, m):
    """At D=5, q^(s0/2) underflows from k = 463 and C(-s0, k) overflows from
    k = 511, though their product (9.19e-51 at k = 500) does not.  The
    reference takes the same double s0."""
    field = make_field(d)
    (p,) = [p for p in pole_lattice(field, k, abs(m)) if (p.k, p.m) == (k, m)]
    assert_residues_match_mpmath(field, p)


@pytest.mark.parametrize("lattice", ["split", "combined"])
@pytest.mark.parametrize("d", [2, 5, 13, 29])
def test_every_row_of_a_table_matches_mpmath(d, lattice):
    """Each row is a step of its column's running product; every one of the
    whole table, both residues, is within 1e-11 of mpmath."""
    field = make_field(d)
    poles = pole_lattice(field, 6, 6, lattice)
    assert len(poles) == (91 if lattice == "split" else 46)
    for p in poles:
        assert_residues_match_mpmath(field, p)


@pytest.mark.parametrize("lattice", ["split", "combined"])
@pytest.mark.parametrize("d", [2, 5, 13, 29])
def test_pole_locations_are_nearest_lattice_pole_points(d, lattice):
    """The table's locations are nearest_lattice_pole's own points, m times
    the pole spacing, to the last bit; pi m / log eps is an ulp away from
    them at about 30% of m."""
    field = make_field(d)
    for p in pole_lattice(field, 2, 3000, lattice):
        assert nearest_lattice_pole(field, p.location, lattice)[:3] == (p.location, p.k, p.m)


@pytest.mark.parametrize("lattice", ["split", "combined"])
def test_pole_lattice_refuses_at_its_first_residue_out_of_double_range(lattice):
    """At D=5, k = 190, |m| = 2600 the residue is about 7.9e318 in mpmath,
    past the largest double.  The columns run from the largest |m| down, +m
    first, so the table refuses in its first column, m = 2600, at its first
    row out of range: k = 182, whose residue is 6.5e308, after 3.5e307 at
    k = 181."""
    f5_spacing = F5.half_unit.pole_spacing
    for m in (2600, -2600):
        assert abs(mp_residue(F5, 190, complex(-380, m * f5_spacing))) > mp.mpf("7e318")
    assert abs(mp_residue(F5, 182, complex(-364, 2600 * f5_spacing))) > mp.mpf("6e308")
    assert abs(mp_residue(F5, 181, complex(-362, 2600 * f5_spacing))) < mp.mpf("4e307")
    with pytest.raises(FactorOverflowError) as info:
        pole_lattice(F5, 190, 2600, lattice)
    assert info.value.factor == "residue (k=182, m=2600)"
    assert info.value.s == complex(-364, 2600 * f5_spacing)


@pytest.mark.parametrize("d", [2, 5, 10, 13, 29])
def test_odd_zeta_at_one_is_jacobis_theta_value(d):
    """Z_odd(1) = (sqrt(q)/4) theta_2(0, eps^-2)^2, the reference of the
    golden suite's reciprocal-fibonacci line: the direct series agrees to
    rounding, and the theta series to a 30-digit one in mpmath."""
    field = make_field(d)
    value = suites._odd_at_one_by_theta(field)
    direct = evaluate(field, 1.0, "odd", "direct", 1e-15).value
    assert abs(direct / value - 1.0) <= 1e-15
    with mp.workdps(30):
        x = 1 / ((field.eps.a + field.eps.b * mp.sqrt(field.q)) / 2) ** 2
        ref = mp.sqrt(field.q) / 4 * mp.jtheta(2, 0, x) ** 2
    assert abs(value - float(ref)) <= 1e-15 * float(ref)


# ------------------------------------------------------------- contour residues

def zfun_odd(s):
    return evaluate(F5, s, "odd", "binomial", 1e-12, pole_guard=FINE_GUARD).value


def test_numeric_residue_at_origin():
    res = residue_numeric(zfun_odd, 0j, 1e-3)
    assert abs(res - 1.0390434606175138) < 1e-6


def test_numeric_residues_match_analytic():
    for which in ("odd", "even"):
        for p in pole_lattice(F5, 1, 2):
            num = residue_numeric(
                lambda s, which=which: evaluate(F5, s, which, "binomial", 1e-12,
                                                pole_guard=FINE_GUARD).value,
                p.location,
                1e-3,
            )
            ana = p.residue_odd if which == "odd" else p.residue_even
            assert abs(num - ana) <= 1e-6 * max(1.0, abs(ana)), (which, p.k, p.m)


@pytest.mark.parametrize("d", suites.DEFAULT_FIELDS)
def test_sixteen_contour_points_give_the_residues_of_sixty_four(d):
    """The residues suite takes 16 points a contour.  On a circle of radius
    r the trapezoid rule errs by about (r/R)^N, R the distance to the next
    pole: R >= 1.72 on these fields, so at r = 1e-3 the rule is exact to
    rounding at 16 points as at 64, on every pole the suite checks."""
    field = make_field(d)
    for parity in ("odd", "even"):
        def zfun(s):
            return evaluate(field, s, parity, "binomial", 1e-12, pole_guard=FINE_GUARD).value

        for p in pole_lattice(field, 2, 3):
            ana = p.residue_odd if parity == "odd" else p.residue_even
            scale = max(1.0, abs(ana))
            n16 = residue_numeric(zfun, p.location, 1e-3, num_points=16)
            n64 = residue_numeric(zfun, p.location, 1e-3, num_points=64)
            assert abs(n16 - ana) <= 1e-11 * scale, (parity, p.k, p.m)
            assert abs(n16 - n64) <= 1e-12 * scale, (parity, p.k, p.m)


def test_residue_suite_fails_on_a_residue_off_by_one_part_in_ten_to_the_five(monkeypatch):
    """16 points still tell a residue from one scaled by 1 + 1e-5."""
    lattice = pole_lattice(F5, 2, 3)
    worst = max(range(len(lattice)), key=lambda i: abs(lattice[i].residue_odd))

    def mutated(field, k_max, m_max):
        out = pole_lattice(field, k_max, m_max)
        out[worst] = out[worst]._replace(residue_odd=out[worst].residue_odd * (1.0 + 1e-5))
        return out

    assert all(res.passed for res in suites.residue_checks(F5))
    monkeypatch.setattr(suites, "pole_lattice", mutated)
    contour = suites.residue_checks(F5)[0]
    assert contour.line().startswith("FAIL residues-contour-vs-analytic D=5")


def test_combined_residue_vanishes_at_cancelled_point():
    # k=0, m=1: cancelled in the combined zeta
    s0 = complex(0.0, math.pi / F5.log_eps)
    res = residue_numeric(
        lambda s: evaluate(F5, s, "combined", "binomial", 1e-12, pole_guard=FINE_GUARD).value,
        s0,
        1e-3,
    )
    assert abs(res) < 1e-8


def test_even_poisson_residue_at_imaginary_pole():
    s0 = complex(0.0, math.pi / F5.log_eps)
    spec = [p for p in pole_lattice(F5, 0, 1) if p.m == 1][0]
    res = residue_numeric(
        lambda s: evaluate(F5, s, "even", "poisson", 1e-12, pole_guard=FINE_GUARD).value,
        s0,
        1e-3,
    )
    assert abs(res - spec.residue_even) < 1e-6 * abs(spec.residue_even)


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
def _plain_isqrt_scan(d: int, sign: int) -> tuple[int, ...]:
    """t^2 for every t with d t^2 + sign*ell a positive square, t^2 up to the
    default bound, by isqrt on every candidate."""
    shift = sign * make_field(d).ell
    plain = []
    for t in range(1, math.isqrt(SHIFTED_CONV_BOUND) + 1):
        other = d * t * t + shift
        if other > 0 and math.isqrt(other) ** 2 == other:
            plain.append(t * t)
    return tuple(plain)


# 4031^2 and 4032^2 end the scan on either side of the r = 0 class mod 4032,
# 4032^2 + 1 just past it, 10^10 - 1 in a class cut short, 1 below every class
@pytest.mark.parametrize("n_max", [1, 4031**2, 4032**2, 4032**2 + 1, 10**10 - 1,
                                   SHIFTED_CONV_BOUND])
@pytest.mark.parametrize("d", [2, 3, 5, 7, 10, 13, 29])
@pytest.mark.parametrize("sign", [-1, 1])
def test_square_pair_support_matches_plain_isqrt_scan(d, sign, n_max):
    plain = [n for n in _plain_isqrt_scan(d, sign) if n <= n_max]
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

SPECIAL_FIELDS = (2, 3, 5, 7, 10, 13, 29, 61)
SPECIAL_N = (1, 3, 5, 7, 9)


def test_special_values_at_d5():
    assert [special_value(F5, n) for n in SPECIAL_N] == [
        Fraction(-1), Fraction(1, 2), Fraction(-7, 22), Fraction(139, 638), Fraction(-1877, 12122)]


def mp_special_value(field, n):
    """The terminating binomial series at s = -n, q^(-n/2) sum_{k<=n} C(n,k)
    (-1)^k / (eta^(4k-2n) - 1), in 40-digit mpmath (eta = eps for a norm -1
    unit, eps^(1/2) for norm +1)."""
    with mp.workdps(40):
        q = mp.mpf(field.q)
        eta = (mp.mpf(field.eps.a) + mp.mpf(field.eps.b) * mp.sqrt(q)) / 2
        if not field.is_norm_minus_one:
            eta = mp.sqrt(eta)
        total = mp.fsum(mp.binomial(n, k) * (-1) ** k / (eta ** (4 * k - 2 * n) - 1)
                        for k in range(n + 1))
        return total * q ** (mp.mpf(-n) / 2)


@pytest.mark.parametrize("d", SPECIAL_FIELDS)
def test_special_value_is_the_terminating_binomial_series(d):
    field = make_field(d)
    for n in SPECIAL_N:
        exact = special_value(field, n)
        assert isinstance(exact, Fraction)
        with mp.workdps(40):
            ref = mp_special_value(field, n)
            err = abs(mp.mpf(exact.numerator) / exact.denominator - ref) / abs(ref)
        assert err < mp.mpf(10) ** -35, (d, n, err)


def test_special_value_at_minus_one_is_minus_f1_squared_over_f2():
    # the n = 1 sum collapses to -F(1)^2/F(2) = -b/a on a norm -1 field; for
    # the b=1 fields that is -1/F(2)
    for d in (2, 5, 10, 13, 61):
        field = make_field(d)
        val = special_value(field, 1)
        f1 = field.eps.b
        f2 = [t.fib for t in fib_upto(field, 10**12) if t.index == 2][0]
        assert val == Fraction(-f1 * f1, f2)
        assert val == Fraction(-field.eps.b, field.eps.a)


def test_special_value_agrees_with_float_methods():
    for d in (2, 5, 10, 13):
        field = make_field(d)
        exact = float(special_value(field, 1))
        b = zeta_even_binomial(field, -1.0, tol=1e-13).value
        p = zeta_even_poisson(field, -1.0, tol=1e-13).value
        assert abs(b - exact) < 1e-9
        assert abs(p - exact) < 1e-9


@pytest.mark.parametrize("n", [0, 2, -1])
def test_special_value_needs_a_positive_odd_n(n):
    with pytest.raises(DomainError):
        special_value(F5, n)
