import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings as hyp_settings
from hypothesis import strategies as st

from fibzeta import (
    FactorOverflowError,
    FibZetaError,
    NormPlusOneError,
    OutOfRegionError,
    PoleProximityError,
    evaluate,
    make_field,
    nearest_lattice_pole,
    zeta_functional_reconstruction,
)
from fibzeta.continuation import direct_terms_for, zeta_direct, zeta_even_binomial, zeta_odd_binomial
from fibzeta import poisson
from fibzeta.complexfn import _euler_maclaurin_tail, _log_sin_pi, czeta
from fibzeta.poisson import (
    RegionSelector,
    _asymptotic_coefficients,
    _even_pair,
    _first_subtracted_pair,
    _in_double_range,
    _odd_reflected_pair,
    _restored_orders,
    zeta_even_poisson,
    zeta_even_poisson_strip,
    zeta_odd_poisson,
)

from mp_reference import mp_binomial_reference

F5 = make_field(5)
F10 = make_field(10)


# ------------------------------------------------------------------ odd series

def test_odd_poisson_matches_binomial_at_two():
    p = zeta_odd_poisson(F5, 2.0, tol=1e-13)
    b = zeta_odd_binomial(F5, 2.0, tol=1e-13)
    assert abs(p.value - b.value) < 1e-10


def test_odd_poisson_trivial_zeros():
    for j in range(1, 6):
        s = -(2.0 * j - 1.0)
        assert abs(zeta_odd_poisson(F5, s).value) < 1e-10, j
        assert abs(zeta_odd_binomial(F5, s).value) < 1e-10, j


def test_odd_poisson_complex_point_d10():
    s = complex(-0.5, 2.0)
    p = zeta_odd_poisson(F10, s, tol=1e-12)
    b = zeta_odd_binomial(F10, s, tol=1e-12)
    assert abs(p.value - b.value) < 1e-8


def test_odd_poisson_rejects_norm_plus_one():
    with pytest.raises(NormPlusOneError):
        evaluate(make_field(3), 2.0, "odd", "poisson", 1e-12)


@pytest.mark.parametrize("d, route", [(5, zeta_odd_poisson), (5, zeta_even_poisson),
                                      (5, zeta_even_poisson_strip), (3, zeta_even_poisson)])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_poisson_kernels_refuse_the_real_axis_poles(d, route, k):
    """At s = -2k exactly sin(pi s/2) is 0: the kernels once raised a bare
    ValueError at s = 0 and returned values near 1e15 at s = -2 and -4.  They
    refuse as evaluate does, naming the pole, and a point beside it, off the
    axis, still has a value."""
    field = make_field(d)
    s = -2.0 * k
    with pytest.raises(PoleProximityError) as info:
        route(field, s)
    assert (info.value.location, info.value.k, info.value.m, info.value.distance) == (
        complex(-2 * k, 0.0), k, 0, 0.0)
    assert math.isfinite(abs(route(field, complex(s, 1e-3)).value))


# ----------------------------------------------------------------- even series

def test_even_poisson_exact_minus_one():
    ev = zeta_even_poisson(F5, -1.0, tol=1e-12)
    assert abs(ev.value - (-1.0)) < 1e-10


def test_even_poisson_strip_matches_binomial():
    s = 0.1
    p = zeta_even_poisson(F5, s, tol=1e-12)
    b = zeta_even_binomial(F5, s, tol=1e-12)
    assert abs(p.value - b.value) < 1e-8


def test_even_poisson_left_matches_binomial_d10():
    s = -2.5
    p = zeta_even_poisson(F10, s, tol=1e-12)
    b = zeta_even_binomial(F10, s, tol=1e-12)
    assert abs(p.value - b.value) < 1e-8


def test_even_poisson_direct_region():
    s = complex(1.3, 0.7)
    p = zeta_even_poisson(F5, s, tol=1e-12)
    b = zeta_even_binomial(F5, s, tol=1e-12)
    assert p.method == "poisson"
    assert abs(p.value - b.value) < 1e-10


@pytest.mark.parametrize("d", [5, 3])
@pytest.mark.parametrize("s", [complex(0.5, 5.0), complex(1.3, 0.7), complex(2.5, -11.0)])
def test_even_poisson_direct_region_is_the_direct_series_as_a_poisson_record(d, s):
    """Re s >= 0.5 hands the point to the direct series; only the method and
    the pole distance are the Poisson route's own.  D = 3 is norm +1, whose
    even function is the full zeta of the half unit."""
    field = make_field(d)
    tol = 1e-12
    parity = field.half_unit.direct_parity
    direct = zeta_direct(field, s, parity, direct_terms_for(field, s, tol, parity))
    p = evaluate(field, s, "even" if field.is_norm_minus_one else "combined", "poisson", tol)
    assert p.value == direct.value
    assert p.terms_used == direct.terms_used
    assert (p.tail_bound, p.tail_rigorous) == (direct.tail_bound, direct.tail_rigorous)
    assert p.method == "poisson"
    assert p.nearest_pole_distance == nearest_lattice_pole(field, s)[3]
    with pytest.raises(AttributeError):
        p.value = 0j
    with pytest.raises(AttributeError):
        p.tail_bound = 0.0


def test_region_selector_classification():
    sel = RegionSelector()
    assert sel.classify(2.5) == "direct"
    assert sel.classify(0.2) == "left"
    assert sel.classify(complex(-0.25, 3.0)) == "left"
    assert sel.classify(complex(-0.1, 0.0)) == "left"
    assert sel.classify(complex(0.49, 5.0)) == "left"
    assert sel.classify(complex(0.5 - 1e-16, 5.0)) == "left"
    assert sel.classify(complex(0.5, 5.0)) == "direct"
    assert sel.classify(complex(1.02, 0.0)) == "direct"  # inside the s=1 disk
    assert RegionSelector.from_settings(None).classify(0.2) == "left"


def test_even_poisson_near_one_takes_the_direct_series():
    ev = zeta_even_poisson(F5, complex(1.02, 0.0), tol=1e-12)
    b = zeta_even_binomial(F5, complex(1.02, 0.0), tol=1e-12)
    assert abs(ev.value - b.value) < 1e-9


@pytest.mark.parametrize("re_s", [0.5, 0.5 + 1e-12, 0.6, 1.5, 40.0])
def test_strip_form_refuses_points_outside_the_strip(re_s):
    """zeta_even_poisson_strip is the one pair sum left of Re s = 1/2: it
    refuses Re s >= 1/2 alone, and gives zeta_even_poisson's record at
    every point left of it."""
    with pytest.raises(OutOfRegionError):
        zeta_even_poisson_strip(F5, complex(re_s, 2.0))
    s = complex(0.5 - re_s, 2.0)
    assert zeta_even_poisson_strip(F5, s) == zeta_even_poisson(F5, s)


SEAM_FIELDS = {d: make_field(d) for d in (3, 5, 13)}


@pytest.mark.parametrize("d, parity", [(5, "even"), (13, "even"), (3, "combined")])
@pytest.mark.parametrize("re_s", [-0.25 - 1e-9, -0.25, -0.25 + 1e-9, 0.5 - 1e-9, 0.5])
@pytest.mark.parametrize("im_s", [0.7, 4.5, -11.0])
def test_even_poisson_agrees_with_binomial_across_the_region_seams(d, parity, re_s, im_s):
    """Each side of the old left/strip seam at Re s = -0.25, now inside the
    pair sum, and of the left/direct seam at Re s = 0.5 (D = 3 is norm +1:
    its combined zeta is the even one)."""
    field, s = SEAM_FIELDS[d], complex(re_s, im_s)
    p = evaluate(field, s, parity, "poisson", 1e-12)
    b = evaluate(field, s, parity, "binomial", 1e-12)
    assert abs(p.value - b.value) <= 1e-10 * abs(b.value)


# ------------------------------------- asymptotic orders and Hurwitz tails

@pytest.mark.parametrize("s, m0, rel_tol", [
    (complex(-60, 1), 23, 1e-13),  # terms near 23^-61
    (complex(-1, 150), 123, 1e-13),  # Euler-Maclaurin from m0
    # 52 direct terms m^(s-1-2j) before Euler-Maclaurin takes over at 103.
    # Each carries a phase error near 2^-53 |Im s| log m = 7e-14, and their
    # sum is 1/37 of their total size, which costs 2.7e-13
    (complex(-1, 150), 51, 5e-13),
    (complex(-5, -200), 300, 1e-13),
    (complex(-7.55, -17.7), 40, 1e-13),
    (complex(-3.7, 11.0), 9, 1e-13),
    (complex(-0.25, 0.0), 4, 1e-13),
    (complex(0.3, 2.0), 6, 1e-13),  # Re s > 0: order 0 is a continuation
    (complex(0.2, 60.0), 75, 1e-13),
])
def test_restored_orders_match_mpmath(s, m0, rel_tol):
    """Each order 0 <= j <= 6 alone (a unit weight) is the Hurwitz
    zeta(1 + 2j - s, m0); a mix of all of them, with weights of the sizes
    the pair sum gives them, is their weighted sum, though each order's
    Euler-Maclaurin corrections stop at 2^-53 of the first order's."""
    refs = {}
    for j in range(7):
        sigma = complex(1 + 2 * j - s)
        # mpmath subtracts the first m0 - 1 terms from zeta(sigma), which
        # cancels about Re sigma log10 m0 digits
        with mp.workdps(30 + math.ceil(sigma.real * math.log10(m0))):
            refs[j] = complex(mp.zeta(sigma, m0))
        weights = tuple(1.0 if i == j else 0.0 for i in range(7))
        h_j = _restored_orders(s, m0, weights)
        assert abs(h_j - refs[j]) <= rel_tol * abs(refs[j]), (j, h_j, refs[j])
    rng = random.Random(m0)
    weights = tuple(cmath.rect(rng.uniform(0.5, 2.0) * 4.0**-j, rng.uniform(0, 7)) for j in range(7))
    expected = sum(weights[j] * refs[j] for j in refs)
    size = sum(abs(weights[j] * refs[j]) for j in refs)
    assert abs(_restored_orders(s, m0, weights) - expected) <= rel_tol * size


@pytest.mark.parametrize("s, m0", [(complex(-60, 1), 23), (complex(-1, 150), 123),
                                   (complex(-5, -200), 300), (complex(-3.7, 11.0), 9),
                                   (complex(0.3, 2.0), 6), (complex(0.2, 60.0), 75)])
def test_restored_orders_leave_out_less_than_their_floor(s, m0):
    """A floor stops each order's Euler-Maclaurin corrections sooner; what
    the orders leave out together stays below the floor, and a floor below
    rounding changes no bit."""
    rng = random.Random(m0)
    weights = tuple(cmath.rect(rng.uniform(0.5, 2.0) * 4.0**-j, rng.uniform(0, 7)) for j in range(7))
    full = _restored_orders(s, m0, weights)
    assert _restored_orders(s, m0, weights, 1e-30 * abs(full)) == full
    for rel in (1e-6, 1e-10, 1e-14):
        floor = rel * abs(full)
        assert abs(_restored_orders(s, m0, weights, floor) - full) <= floor, rel


@pytest.mark.parametrize("s", [
    complex(0.012, -0.009), complex(-0.004, 0.0), complex(1e-9, 1e-9),  # |s| < 0.02
    complex(1.0 + 1e-6, 0.0), complex(1.0 - 1e-6, 0.0), complex(1.0 + 1e-6, -1e-6),
    complex(-8.0, 0.0), complex(-8.0, 3.0), complex(-8.0, -1e4),
    complex(0.5, 14.134725), complex(0.5, -3000.0), complex(0.5, 1e4),
    complex(3.0, 0.0), complex(3.0, -250.0), complex(3.0, 1e4),
])
def test_euler_maclaurin_tail_from_czetas_side_matches_mpmath(s):
    """czeta's use of the tail _restored_orders shares: one unit weight at
    1 - s from czeta's n = floor(0.6 |s| + 6) + 1 is the Hurwitz zeta(s, n),
    to 1e-14 plus the rounding of the phase |Im s| log n of n^(1 - s)."""
    n = int(0.6 * abs(s) + 6.0) + 1
    with mp.workdps(40):
        ref = complex(mp.zeta(s, n))
    tail = _euler_maclaurin_tail(1.0 - s, n, (1.0 + 0j,))
    assert abs(tail - ref) <= (1e-14 + 2.2e-16 * abs(s.imag) * math.log(n)) * abs(ref), (tail, ref)


@pytest.mark.parametrize("s", [complex(-3.7, 11.0), complex(0.3, 2.0), complex(-6.0, -15.0),
                               complex(-0.5, 0.2), complex(-8.0, 0.0)])
def test_asymptotic_coefficients_leave_a_remainder_of_order_z_to_the_minus_fourteen(s):
    """Gamma(z + a) / Gamma(z + 1 - a) z^(1 - s) - P(z^-2) against mpmath, at
    z = -+ i v with v >= 2 |s|: doubling v divides the remainder by 2^14.  P
    is summed in mpmath from the float coefficients, so that rounding 1 + ...
    to double does not hide a remainder near 1e-14 at v = 4 |s| + 8."""
    a = 0.5 * s
    coefficients = _asymptotic_coefficients(a)
    assert len(coefficients) == 6
    for sign in (-1, 1):
        errs = []
        for v in (2 * abs(s) + 4, 4 * abs(s) + 8):
            z = complex(0, sign * v)
            with mp.workdps(40):
                zm, am = mp.mpc(z), mp.mpc(a)
                ratio = mp.gamma(zm + am) / mp.gamma(zm + 1 - am) * zm ** (1 - mp.mpc(s))
                w = 1 / zm ** 2
                series = mp.mpc(0)
                for e in reversed(coefficients):
                    series = (series + mp.mpc(e)) * w
                errs.append(float(abs(ratio - (1 + series))))
        assert 2**13 < errs[0] / errs[1] < 2**15, errs
        assert errs[0] < 4e-9 and errs[1] < 2e-13, errs


def _even_reference(field, s):
    """Z_even by the binomial series in mpmath (for a norm +1 field, the even
    series of the half unit eps^(1/2), its full zeta), with |Im s| / 2 extra
    digits for the cancellation of its terms."""
    eps = field.eps
    with mp.workdps(40 + int(abs(s.imag) / 2)):
        log_eta = mp.log((eps.a + eps.b * mp.sqrt(eps.q)) / 2)
        if not field.is_norm_minus_one:
            log_eta /= 2
        sm = mp.mpc(s)
        total, coeff, k = mp.mpc(0), mp.mpc(1), 0
        small = mp.mpf(10) ** (-mp.mp.dps + 5)
        while True:
            u2 = mp.exp(-2 * (sm + 2 * k) * log_eta)
            term = coeff * (-1) ** k * u2 / (1 - u2)
            total += term
            if k > abs(s) + 5 and abs(term) < small * abs(total):
                return complex(mp.exp(sm / 2 * mp.log(eps.q)) * total)
            coeff *= (-sm - k) / (k + 1)
            k += 1


# the points of the left region (and one strip point) where subtracting the
# asymptotic orders below m0 lost up to all digits: errors 1.5e-8, 3.1e-5,
# 1.6e-4, 5.9e23, 7.0e-6, 3.3e-7 and 2.3e-8 relative when they were subtracted
# from every pair
SUBTRACTION_PROBES = [
    (13, complex(-6, 15)),
    (29, complex(-7, 18)),
    (5, complex(-30, 1)),
    (5, complex(-60, 1)),
    (13, complex(-2, 80)),
    (5, complex(-1, 150)),
    (29, complex(0.2, 60)),
]


@pytest.mark.parametrize("d, s", SUBTRACTION_PROBES)
def test_even_poisson_is_within_its_bound_where_the_orders_once_cancelled(d, s):
    field = make_field(d)
    ev = zeta_even_poisson(field, s, tol=1e-12)
    ref = _even_reference(field, s)
    assert abs(ev.value - ref) <= max(ev.tail_bound, 1e-12 * abs(ref))


@pytest.mark.parametrize("d", [5, 13, 29])
@pytest.mark.parametrize("re_s", [-3.0, -0.1, 0.3])
@pytest.mark.parametrize("im_s", [40.0, -80.0, 150.0])
def test_even_poisson_is_within_its_bound_far_up_the_axis(d, re_s, im_s):
    """Left and strip points past the saddle of the first pairs, where m0
    grows with |s| and most pairs lie past it."""
    field, s = make_field(d), complex(re_s, im_s)
    ev = zeta_even_poisson(field, s, tol=1e-12)
    ref = _even_reference(field, s)
    assert abs(ev.value - ref) <= max(ev.tail_bound, 1e-12 * abs(ref))


@pytest.mark.parametrize("d", [5, 13, 29])
@pytest.mark.parametrize("re_s", [-0.1, 0.3])
@pytest.mark.parametrize("im_s", [200.0, -200.0, 300.0, -300.0, 400.0])
def test_even_poisson_is_within_its_bound_where_m0_follows_the_three_halves_power(
    d, re_s, im_s
):
    """Past |s| ~ 40 m0 grows like |s/2|^(3/2), where the asymptotic orders
    are small at v_m0.  With m0 = ceil((|s| + 4) / step) + 1 the orders and
    the residual pairs cancelled by up to 2.5e4 there, unseen by the bound:
    at D=5, 0.3+400i the error was 3.6e-10 against a bound of 1.1e-11."""
    field, s = make_field(d), complex(re_s, im_s)
    ev = zeta_even_poisson(field, s, tol=1e-12)
    ref = _even_reference(field, s)
    assert abs(ev.value - ref) <= max(ev.tail_bound, 1e-12 * abs(ref))


@pytest.mark.parametrize("d", [5, 13, 29])
def test_asymptotic_orders_are_small_at_the_first_subtracted_pair(d):
    """max_j |e_2j v_m0^(-2j)| stays below 1.5 over Re s in [-8, 0.3] and
    |Im s| <= 450 (it reached 2.5e4 at |Im s| = 400 with m0 on the |s|
    scale alone)."""
    field = make_field(d)
    half_step = math.pi / (2.0 * field.half_unit.log_eta)
    for re_s in (-8.0, -3.0, -0.1, 0.3):
        for im_s in (0.5, 20.0, -40.0, 80.0, -150.0, 200.0, -300.0, 400.0, 450.0):
            s = complex(re_s, im_s)
            v0 = half_step * _first_subtracted_pair(s, half_step)
            orders = _asymptotic_coefficients(0.5 * s)
            assert max(abs(e) * v0 ** (-2 * j) for j, e in enumerate(orders, 1)) < 1.5, s


def _strip_sweep_points():
    """The region of the old strip form, -0.25 < Re s < 0.5 and |Im s| <= 60,
    16 seeded points a field, and s = 0.001+0.0005i next to the zero of
    sin(pi s/2) at s = 0."""
    rng = random.Random(23)
    points = []
    for d in (2, 3, 5, 13, 29):
        points.append((d, complex(0.001, 0.0005)))
        points += [(d, complex(rng.uniform(-0.25, 0.5), rng.uniform(-60.0, 60.0)))
                   for _ in range(16)]
    return points


@pytest.mark.parametrize("d, s", _strip_sweep_points())
def test_even_pair_sum_is_within_its_bound_where_the_strip_form_was(d, s):
    """The pair sum that replaced the strip form (zeta(s) plus bracketed
    pairs) on -0.25 < Re s < 0.5, norm +1 D = 3 included."""
    field = make_field(d)
    ev = zeta_even_poisson(field, s, tol=1e-12)
    ref = _even_reference(field, s)
    assert abs(ev.value - ref) <= max(ev.tail_bound, 1e-12 * abs(ref))


def test_even_poisson_stops_near_abs_s_up_the_axis():
    """At D = 5, 0.3+100i the pair loop starts subtracting the orders at
    m0 = ceil((|s| + 4) / step) + 1 = 33 and ends at pair 240 (481 terms);
    with orders only through z^-8 and m0 from |s| + 8 it took 539 pairs."""
    assert zeta_even_poisson(F5, complex(0.3, 100.0), tol=1e-12).terms_used <= 500


@pytest.mark.parametrize("s", [complex(0.2, 460.0), complex(0.2, 1e5), complex(0.2, 1.6e5),
                               complex(0.1, 1e12), complex(-0.2, -3e5)])
def test_strip_refuses_an_overflowing_sine_before_summing_zeta(monkeypatch, s):
    """sin(pi s/2) leaves double range past |Im s| ~ 452, and the pair sum
    refuses there; neither there nor below it does it call zeta(s), which
    would sum up to 100,000 terms."""
    calls = []

    def counting(z):
        calls.append(z)
        return czeta(z)

    monkeypatch.setattr("fibzeta.poisson.czeta", counting)
    with pytest.raises(FactorOverflowError) as info:
        zeta_even_poisson_strip(F5, s)
    assert (info.value.factor, info.value.s) == ("sin(pi s/2)", s)
    assert calls == []
    zeta_even_poisson_strip(F5, complex(0.2, 400.0))
    assert calls == []


def test_even_poisson_matches_mpmath_across_the_left_and_strip_regions():
    """120 points, Re s in [-8, 0.5) and |Im s| <= 20, D in {3, 5, 13, 29}."""
    rng = random.Random(2017)
    fields = [make_field(d) for d in (3, 5, 13, 29)]
    worst = 0.0
    for i in range(120):
        field = fields[i % 4]
        s = complex(rng.uniform(-8.0, 0.5), rng.uniform(-20.0, 20.0))
        parity = "even" if field.is_norm_minus_one else "combined"
        value = evaluate(field, s, parity, "poisson", 1e-12).value
        ref = _even_reference(field, s)
        worst = max(worst, abs(value - ref) / abs(ref))
    assert worst <= 1e-10


# ---------------------------------------------------------- conjugate symmetry

@pytest.mark.parametrize("s", [complex(1.4, 2.0), complex(-1.3, 5.0), complex(0.1, -3.0)])
def test_conjugate_symmetry_all_methods(s):
    for fun in (zeta_odd_binomial, zeta_even_binomial, zeta_odd_poisson, zeta_even_poisson):
        a = fun(F5, s, tol=1e-12).value
        b = fun(F5, s.conjugate(), tol=1e-12).value
        assert abs(a - b.conjugate()) < 1e-10 * max(1.0, abs(a))


# -------------------------------------------------- functional-equation check

def test_zeta_cancellation_identity():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(-4.5, -2.5), rng.uniform(-6, 6))
        recon, ref, terms = zeta_functional_reconstruction(F5, s, tol=1e-11)
        worst = max(worst, abs(recon - ref))
    assert worst < 1e-9


def test_zeta_cancellation_out_of_region():
    with pytest.raises(OutOfRegionError):
        zeta_functional_reconstruction(F5, 0.5)


# ------------------------------------------------------- gamma-ratio pairs

RATIO_PAIR_FIELDS = {d: make_field(d) for d in (5, 13, 29)}
# a float m puts v at |Im a| + m, the seam of the two ranges of the pair
# denominator, instead of at the pair index m
SEAM_OFFSETS = (-1e-9, 1e-9)
# |Im s| up to 450, past which the even pair sum refuses sin(pi s/2)
IM_S = st.one_of(st.floats(min_value=-80.0, max_value=80.0),
                 st.floats(min_value=-450.0, max_value=450.0))
PAIR_INDEX = st.one_of(st.integers(min_value=1, max_value=200), st.sampled_from(SEAM_OFFSETS))


def _pair_args(re_s, im_s, d, m):
    s = complex(re_s, im_s)
    a = 0.5 * s
    if isinstance(m, float):
        v = abs(a.imag) + m
    else:
        v = m * math.pi / (2.0 * RATIO_PAIR_FIELDS[d].log_eps)
    return s, v, a


def _sine_of(a):
    """(h, sin2, e2h, 2 sin(pi a) e^(-pi h)), h = |Im a|, sin2 the square of
    the last, e2h = e^(-2 pi h), as the pair loops form them from the one
    log sine of the evaluation."""
    h = abs(a.imag)
    two_sin = 2.0 * cmath.exp(_log_sin_pi(a) - math.pi * h)
    return h, two_sin * two_sin, math.exp(-2.0 * math.pi * h), two_sin


def _odd_pair_at(a, v, far_v):
    """The odd pair at s = 2a as the pair loop forms it."""
    h, sin2, e2h, _ = _sine_of(a)
    return _odd_reflected_pair(1 - a, v, h, sin2, e2h, far_v)


def _even_pair_at(a, v, far_v):
    """The even pair at s = 2a as the pair loops form it."""
    h, sin2, e2h, two_sin = _sine_of(a)
    return _even_pair(1 - a, v, h, sin2, e2h, far_v,
                      2.0 * math.pi * two_sin, 4.0 * math.pi * cmath.sin(math.pi * a))


def _pair_references(a, v):
    """Gamma(a + i v) Gamma(a - i v), ratio(m) + ratio(-m) and
    |ratio(m)| + |ratio(-m)|, ratio(+-m) = Gamma(a -+ i v) / Gamma(1 - a -+ i v),
    from mpmath's gammas at 30 digits."""
    with mp.workdps(30):
        am, iv = mp.mpc(a), mp.mpc(0, v)
        plus, minus = mp.gamma(am + iv), mp.gamma(am - iv)
        ratio_m, ratio_minus_m = minus / mp.gamma(1 - am - iv), plus / mp.gamma(1 - am + iv)
        return plus * minus, ratio_m + ratio_minus_m, abs(ratio_m) + abs(ratio_minus_m)


def _assert_pair_close(value, ref, size, a, v):
    """value is ref to 1e-14 (1 + |a| + v) of the terms' size, plus
    4 2^-53 (1 + |a| + v) / dist next to a pole of the gammas at distance
    dist, plus a few steps of 2^-1074 where the pair is subnormal.  The first
    term is the rounding of the two log-gammas, whose arguments have size
    |a| + v (complexfn: up to 5e-13 at |z| = 300); the second, that of their
    arguments and of the sine product next to its zeros (the same floor as
    test_reflected_routes_keep_their_digits_next_to_the_poles).  Against
    mpmath, 1e-14 (1 + v) alone is out of reach where |a| is large and v
    small: on |Im s| <= 80 both the sine-product pairs and the log-sine
    forms they replaced miss it by up to 1.9 times, at v ~ 1 to 2 and
    |Im s| ~ 40 to 75.
    test_far_pairs_equal_the_near_pair_in_closed_form holds the two forms
    of a pair, which share their log-gammas, to 1e-14 (1 + v) of each
    other."""
    dist = min(abs(z - min(round(z.real), 0)) for z in (a + 1j * v, a - 1j * v))
    scale = 1.0 + abs(a) + v
    with mp.workdps(30):
        err = abs(mp.mpc(value) - ref)
        assert err <= scale * (1e-14 + 4.0 * 2.0**-53 / dist) * size + 64 * 2.0**-1074, (
            float(err / size), a, v)


@given(re_s=st.floats(min_value=-8.0, max_value=1.0, exclude_max=True), im_s=IM_S,
       d=st.sampled_from(sorted(RATIO_PAIR_FIELDS)), m=PAIR_INDEX)
# points that pinned the log-sine forms on each side of the branch of
# _log_sin_pi at |Im z| = 7, and points on each side of the seam v = |Im a|,
# one of them 1e-9 from a pole of Gamma(a - i v)
@example(re_s=-2.0, im_s=20.43, d=5, m=1)
@example(re_s=0.9, im_s=19.36, d=13, m=2)
@example(re_s=-0.5, im_s=-19.62, d=29, m=3)
@example(re_s=-5.0, im_s=-16.73, d=13, m=1)
@example(re_s=-3.3, im_s=1.6, d=5, m=5)
@example(re_s=-7.9, im_s=0.91, d=29, m=1)
@example(re_s=-3.3, im_s=300.0, d=5, m=1e-9)
@example(re_s=0.7, im_s=-450.0, d=13, m=-1e-9)
@example(re_s=-8.0, im_s=-41.5, d=29, m=1e-9)
@hyp_settings(max_examples=400, deadline=None)
def test_odd_reflected_pair_matches_mpmath(re_s, im_s, d, m):
    """A near pair (far_v = inf here, so at any v) is the product of the two
    gammas, from their reflected log-gammas and the sine product, on both
    sides of the seam v = |Im a| of its denominator and up to |Im s| = 450."""
    _, v, a = _pair_args(re_s, im_s, d, m)
    assume(v > 0.0 and a != 0)  # at s = 0 the m = 0 term is a pole: no pair is formed
    ref, _, _ = _pair_references(a, v)
    _assert_pair_close(_odd_pair_at(a, v, math.inf), ref, abs(ref), a, v)


@given(re_s=st.floats(min_value=-8.0, max_value=0.5, exclude_max=True), im_s=IM_S,
       d=st.sampled_from(sorted(RATIO_PAIR_FIELDS)), m=PAIR_INDEX)
@example(re_s=-3.3, im_s=17.0, d=13, m=41)
@example(re_s=-2.0, im_s=20.43, d=5, m=1)
@example(re_s=-0.5, im_s=-19.62, d=29, m=3)
@example(re_s=-0.7, im_s=450.0, d=5, m=-1e-9)
@example(re_s=-6.0, im_s=222.2, d=13, m=1e-9)
@hyp_settings(max_examples=400, deadline=None)
def test_even_pair_matches_mpmath(re_s, im_s, d, m):
    """A near pair (far_v = inf here) is ratio(m) + ratio(-m), from the two
    log-gammas the ratios share and the sine product, measured against the
    size of the two ratios, which cancel where sin(pi s/2) = 0."""
    _, v, a = _pair_args(re_s, im_s, d, m)
    assume(v > 0.0 and a != 0)  # at s = 0 the m = 0 term is a pole: no pair is formed
    _, ref, size = _pair_references(a, v)
    assume(size < 1e300)  # a pair out of double range raises OverflowError
    _assert_pair_close(_even_pair_at(a, v, math.inf), ref, size, a, v)


# repr values that must repeat exactly: (D, form, s, value, terms_used).  The
# odd rows were last recorded when log Gamma became Stirling's series alone,
# taken at z + n below |z| = 10, and zeta Euler-Maclaurin alone.  The even
# rows were recorded again when the pair sum began subtracting orders through
# z^-12 from m0 = ceil((|s| + 4) / step) + 1: each takes fewer terms, and
# none is further from the oracle value than before but by rounding (at most
# 3.1e-16 -> 3.3e-16 relative).  The rows with -0.25 < Re s < 0.5 were
# recorded again when the strip form (zeta(s) plus bracketed pairs) gave way
# to the one pair sum: against the mpmath binomial series each error is
# within 4% of its old one (D = 3's -0.1+5.5i: 4.90e-14 -> 5.09e-14
# relative), except D = 13's 0.45-12.25i, which went from 8.3e-13 to
# 5.4e-13 with 61 terms, not 59.  Eighteen rows were recorded again when
# the pairs took the sine product, from one log sine an evaluation, and the
# even sum its orders from past its last pair (all but the odd rows at
# 1.5-15i, which do not reflect, D = 5's odd 0.3+2i and even -1.5+0.5i,
# which round to the same bits): the same terms, and each error against the
# mpmath binomial series as before but by rounding (the largest move
# 3.0e-15 -> 6.5e-15 relative, D = 13's odd -2.5+7i).  Sixteen rows were
# recorded again when both sums stopped once tol was met, the odd pairs on
# their geometric tail past the saddle at tol/8 and the even restored orders
# at tol/100 (all but D = 5's odd 0.3+2i and even -0.1+5.5i and -1.5+0.5i,
# D = 13's even 0.3+2i and D = 3's even 0.3+2i and -3.7+11i): the odd rows
# that moved take one pair fewer, the even ones the same terms, and the
# largest move against the mpmath binomial series is 2.7e-15 -> 8.2e-14
# relative, D = 13's odd 1.5-15i, within its tol of 1e-12
FROZEN_POISSON = [
    (5, "even", complex(0.3, 2.0), (0.5610063221455392-0.21275098527986216j), 7),
    (5, "even", complex(-0.1, 5.5), (1.264207795051301+1.2078408782122811j), 11),
    (5, "even", complex(0.45, -12.25), (1.9159361237016777+0.2825351332733135j), 25),
    (5, "even", complex(-1.5, 0.5), (-0.6266072680550561+0.24076014735815732j), 7),
    (5, "even", complex(-3.7, 11.0), (-1.6627647114477053+0.45735393141602854j), 17),
    (5, "even", complex(-6.2, -4.3), (0.09907639642712338-0.06680965717944708j), 11),
    (5, "odd", complex(0.3, 2.0), (0.7910265627061279-0.5578800190552203j), 7),
    (5, "odd", complex(-2.5, 7.0), (1.6345150077047115-3.229734762957032j), 7),
    (5, "odd", complex(1.5, -15.0), (0.8606687303594445-0.35064956105364753j), 11),
    (13, "even", complex(0.3, 2.0), (-0.10776260209554496-0.6605860001960904j), 13),
    (13, "even", complex(-0.1, 5.5), (0.14974411161247592-1.5487687587253265j), 25),
    (13, "even", complex(0.45, -12.25), (0.4141357701788675+0.30736084319491985j), 61),
    (13, "even", complex(-1.5, 0.5), (-0.14431366558445263-0.022098918611815004j), 13),
    (13, "even", complex(-3.7, 11.0), (-0.17007778341484106-0.11263071719792864j), 35),
    (13, "even", complex(-6.2, -4.3), (-0.00752602508837801-0.005655825606078442j), 21),
    (13, "odd", complex(0.3, 2.0), (0.7489961554911441+0.3882734919920546j), 15),
    (13, "odd", complex(-2.5, 7.0), (0.03811172025877535-0.11880438161733746j), 17),
    (13, "odd", complex(1.5, -15.0), (0.9686751243661915+0.0014137935909887128j), 25),
    # norm +1, recorded before the even form lost its overlap bands
    (3, "even", complex(0.3, 2.0), (0.6000505445941233-0.06933418371246139j), 9),
    (3, "even", complex(-0.1, 5.5), (0.053698179645900984-0.6025673770756316j), 15),
    (3, "even", complex(-1.5, 0.5), (-0.2542844224566854+0.025529330206683645j), 9),
    (3, "even", complex(-3.7, 11.0), (-0.1264954920263389+0.08759374873035117j), 21),
]


@pytest.mark.parametrize("d, form, s, value, terms", FROZEN_POISSON)
def test_poisson_values_repeat_bit_for_bit(d, form, s, value, terms):
    field = SEAM_FIELDS[d]
    if form == "even":  # the pair sum: every even row has Re s < 1/2
        ev = zeta_even_poisson(field, s, tol=1e-12)
    else:
        ev = zeta_odd_poisson(field, s, tol=1e-12)
    assert (ev.value, ev.terms_used) == (value, terms)


@pytest.mark.parametrize("parity, s, pairs, reflected", [
    ("even", complex(-3.7, 11.0), 18, True),  # left region: stops at m0 = 18
    ("even", complex(0.2, 15.0), 37, True),  # strip region
    ("odd", complex(-3.7, 11.0), 12, True),
    ("odd", complex(0.2, 15.0), 15, True),
    ("odd", complex(0.7, 2.0), 9, True),  # the last pair is far
    ("odd", complex(1.5, -7.0), 12, False),  # Re(s/2) >= 1/2: no reflection
])
def test_pair_loops_take_one_sine_an_evaluation_and_two_log_gammas_a_pair(
    monkeypatch, parity, s, pairs, reflected
):
    """Outside the pair loops fibzeta.poisson calls log_gamma for Gamma(1 - s)
    (even) and _log_gamma_right once for the m = 0 term.  Where s/2
    reflects, the evaluation takes one _log_sin_pi, which serves the m = 0
    term and every pair, and every pair, near or far, two _log_gamma_right
    calls and no sine."""
    names = ("log_gamma", "_log_sin_pi", "_log_gamma_right")
    seen = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args):
            seen[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(f"fibzeta.poisson.{name}", counting(name, getattr(poisson, name)))
    evaluator = zeta_even_poisson if parity == "even" else zeta_odd_poisson
    ev = evaluator(RATIO_PAIR_FIELDS[29], s, tol=1e-10)
    assert ev.terms_used == 2 * pairs + 1
    assert seen == {
        "log_gamma": 1 if parity == "even" else 0,
        "_log_sin_pi": 1 if reflected else 0,
        "_log_gamma_right": 2 * pairs + 1,
    }


@given(
    re_s=st.floats(min_value=-8.0, max_value=4.0),
    im_s=st.one_of(st.floats(min_value=-20.0, max_value=20.0),
                   st.floats(min_value=-450.0, max_value=450.0)),
    beyond=st.floats(min_value=0.0, max_value=300.0, exclude_min=True),
)
@example(re_s=-0.5, im_s=0.0, beyond=1e-12)
@example(re_s=-7.9, im_s=-20.0, beyond=299.0)
@example(re_s=0.0, im_s=10.224334928717653, beyond=215.60345177386932)
@example(re_s=-3.0, im_s=450.0, beyond=1e-12)
@hyp_settings(max_examples=300, deadline=None)
def test_far_pairs_match_mpmath_in_closed_form(re_s, im_s, beyond):
    """Past v = |Im s|/2 + 7 each pair is one exp of its two log-gammas in
    closed form: against mpmath's gammas it errs as a near pair does, for
    the even ratio pair and the odd reflected gamma product, on the grid box
    Re s in [-8, 4], |Im s| <= 20, and up to |Im s| = 450 (the odd pair
    reflects only where Re s < 1; the even reflection holds on all of it).
    Far out the odd pair is subnormal (5.6e-313 at the third example)."""
    a = 0.5 * complex(re_s, im_s)
    assume(a != 0)  # at s = 0 the m = 0 term is a pole: no pair is formed
    far_v = abs(a.imag) + 7.0
    v = far_v + beyond
    odd_ref, even_ref, size = _pair_references(a, v)
    if size < 1e300:  # the even pairs grow like e^(pi |Im a|) v^(2 Re a - 1)
        _assert_pair_close(_even_pair_at(a, v, far_v), even_ref, size, a, v)
    if re_s < 1.0:
        _assert_pair_close(_odd_pair_at(a, v, far_v), odd_ref, abs(odd_ref), a, v)


@given(
    re_s=st.floats(min_value=-8.0, max_value=4.0),
    im_s=st.one_of(st.floats(min_value=-20.0, max_value=20.0),
                   st.floats(min_value=-450.0, max_value=450.0)),
    beyond=st.floats(min_value=0.0, max_value=300.0, exclude_min=True),
)
@example(re_s=-0.5, im_s=0.0, beyond=1e-12)
@example(re_s=-7.9, im_s=-20.0, beyond=299.0)
@example(re_s=0.0, im_s=10.224334928717653, beyond=215.60345177386932)
@example(re_s=-3.0, im_s=450.0, beyond=1e-12)
@hyp_settings(max_examples=300, deadline=None)
def test_far_pairs_equal_the_near_pair_in_closed_form(re_s, im_s, beyond):
    """Past v = |Im s|/2 + 7 each pair folds its denominator into one exp:
    the closed form is the near form at the same v (far_v = inf), from the
    same two log-gammas, to 1e-14 (1 + v) relative, for the even ratio pair
    and the odd reflected gamma product, on the grid box Re s in [-8, 4],
    |Im s| <= 20, and up to |Im s| = 450 (the odd pair reflects only where
    Re s < 1; the even reflection holds on all of it).  Far out the odd pair
    is subnormal (5.6e-313 at the third example), where its two forms may
    differ by a step of 2^-1074 that the relative bound is below, so its
    comparison allows a few such steps."""
    a = 0.5 * complex(re_s, im_s)
    assume(a != 0)  # at s = 0 the m = 0 term is a pole: no pair is formed
    far_v = abs(a.imag) + 7.0
    v = far_v + beyond
    # the two terms of the even pair cancel where sin(pi s/2) = 0, so its
    # error is measured against their size
    _, _, size = _pair_references(a, v)
    if size < 1e300:  # the even pairs grow like e^(pi |Im a|) v^(2 Re a - 1)
        near = _even_pair_at(a, v, math.inf)
        assert abs(_even_pair_at(a, v, far_v) - near) <= 1e-14 * (1.0 + v) * float(size)
    if re_s < 1.0:
        near = _odd_pair_at(a, v, math.inf)
        closed = _odd_pair_at(a, v, far_v)
        assert abs(closed - near) <= 1e-14 * (1.0 + v) * abs(near) + 4.0 * 2.0**-1074


@pytest.mark.parametrize("d", [5, 13, 29])
def test_reflected_routes_keep_their_digits_next_to_the_poles(d):
    """Odd and even Poisson (both reflected: Re s <= 0.01) at distance
    1e-2 .. 1e-6 from the poles -2k + pi i m / log eta, k <= 3, of the
    split lattice, in a direction that turns from one distance to the next.
    There the pair denominator sin^2 pi a + sinh^2 pi v of one pair
    vanishes at the pole, and rounding s costs 2^-53 (1 + |s|) / dist of the
    value; each route stays within 4 times that of the binomial series in
    mpmath."""
    field = make_field(d)
    spacing = math.pi / field.half_unit.log_eta
    for k in range(4):
        for m in (-3, -1, 1, 2, 5):
            for i, dist in enumerate((1e-2, 1e-3, 1e-4, 1e-5, 1e-6)):
                s = complex(-2.0 * k, m * spacing) + dist * cmath.exp(1j * (0.7 + 1.3 * i))
                for route, kind in ((zeta_odd_poisson, "odd"), (zeta_even_poisson, "even")):
                    value = route(field, s, tol=1e-12).value
                    ref = mp_binomial_reference(field, s, kind)
                    err = abs(value - ref) / abs(ref)
                    assert err <= 4.0 * 2.0**-53 * (1.0 + abs(s)) / dist, (kind, s, err)


# evaluate(make_field(5), complex(re_s, im_s), parity, "poisson", 1e-12) before
# the pairs took the sine product: its relative error against
# mp_binomial_reference, or what it refused with, the factor of a
# FactorOverflowError or the class of any other error.  The odd points that
# sum, from |Im s| = 60 on and at Re s = -12 from 40, erred by about 100%
# then (ROADMAP item 3); their errors here are those measured once the odd
# sum stopped only past the saddle.  The even points at 451.9i refuse at
# once now, on the factor 4 pi sin(pi s/2): before, those with Re s <= -3
# summed NaN pairs up to the pair cap and raised TooSlowConvergenceError,
# and the others ended in inf
FAR_UP_BEFORE = [
    (-12.0, 40.0, "odd", 3.88e-14),
    (-12.0, 40.0, "even", 3.31e-14),
    (-12.0, -60.0, "odd", 1.59e-14),
    (-12.0, -60.0, "even", 2.86e-14),
    (-12.0, 100.0, "odd", 9.61e-15),
    (-12.0, 100.0, "even", 1.06e-14),
    (-12.0, -150.0, "odd", 2.44e-13),
    (-12.0, -150.0, "even", 2.04e-13),
    (-12.0, 200.0, "odd", 1.74e-13),
    (-12.0, 200.0, "even", 1.29e-13),
    (-12.0, 300.0, "odd", "1/Gamma(s)"),
    (-12.0, 300.0, "even", 1.23e-13),
    (-12.0, -380.0, "odd", "1/Gamma(s)"),
    (-12.0, -380.0, "even", 1.11e-12),
    (-12.0, 420.0, "odd", "1/Gamma(s)"),
    (-12.0, 420.0, "even", 3.19e-13),
    (-12.0, 450.0, "odd", "1/Gamma(s)"),
    (-12.0, 450.0, "even", 6.06e-14),
    (-12.0, 451.9, "odd", "1/Gamma(s)"),
    (-12.0, 451.9, "even", "4 pi sin(pi s/2)"),
    (-3.0, 40.0, "odd", 1.37e-14),
    (-3.0, 40.0, "even", 4.12e-14),
    (-3.0, -60.0, "odd", 3e-14),
    (-3.0, -60.0, "even", 6.14e-14),
    (-3.0, 100.0, "odd", 9.83e-14),
    (-3.0, 100.0, "even", 4.75e-14),
    (-3.0, -150.0, "odd", 2.85e-14),
    (-3.0, -150.0, "even", 3.97e-14),
    (-3.0, 200.0, "odd", 3.89e-13),
    (-3.0, 200.0, "even", 8.58e-14),
    (-3.0, 300.0, "odd", "1/Gamma(s)"),
    (-3.0, 300.0, "even", 1.49e-14),
    (-3.0, -380.0, "odd", "1/Gamma(s)"),
    (-3.0, -380.0, "even", 3.66e-13),
    (-3.0, 420.0, "odd", "1/Gamma(s)"),
    (-3.0, 420.0, "even", 9.41e-13),
    (-3.0, 450.0, "odd", "1/Gamma(s)"),
    (-3.0, 450.0, "even", 5.61e-13),
    (-3.0, 451.9, "odd", "1/Gamma(s)"),
    (-3.0, 451.9, "even", "4 pi sin(pi s/2)"),
    (-0.7, 40.0, "odd", 7.95e-15),
    (-0.7, 40.0, "even", 1.48e-13),
    (-0.7, -60.0, "odd", 1.21e-14),
    (-0.7, -60.0, "even", 8.53e-14),
    (-0.7, 100.0, "odd", 4.03e-14),
    (-0.7, 100.0, "even", 5.02e-14),
    (-0.7, -150.0, "odd", 5.46e-14),
    (-0.7, -150.0, "even", 4.26e-14),
    (-0.7, 200.0, "odd", 1.29e-13),
    (-0.7, 200.0, "even", 1.86e-13),
    (-0.7, 300.0, "odd", "1/Gamma(s)"),
    (-0.7, 300.0, "even", 1.9e-13),
    (-0.7, -380.0, "odd", "1/Gamma(s)"),
    (-0.7, -380.0, "even", 4.89e-13),
    (-0.7, 420.0, "odd", "1/Gamma(s)"),
    (-0.7, 420.0, "even", 2.01e-13),
    (-0.7, 450.0, "odd", "1/Gamma(s)"),
    (-0.7, 450.0, "even", 1.42e-13),
    (-0.7, 451.9, "odd", "1/Gamma(s)"),
    (-0.7, 451.9, "even", "4 pi sin(pi s/2)"),
    (0.3, 40.0, "odd", 3.6e-14),
    (0.3, 40.0, "even", 1.55e-13),
    (0.3, -60.0, "odd", 1.18e-13),
    (0.3, -60.0, "even", 4.92e-13),
    (0.3, 100.0, "odd", 8.03e-15),
    (0.3, 100.0, "even", 4.55e-13),
    (0.3, -150.0, "odd", 2.07e-13),
    (0.3, -150.0, "even", 1.2e-12),
    (0.3, 200.0, "odd", 2.07e-13),
    (0.3, 200.0, "even", 2.78e-13),
    (0.3, 300.0, "odd", "1/Gamma(s)"),
    (0.3, 300.0, "even", 4.66e-13),
    (0.3, -380.0, "odd", "1/Gamma(s)"),
    (0.3, -380.0, "even", 1.46e-11),
    (0.3, 420.0, "odd", "1/Gamma(s)"),
    (0.3, 420.0, "even", 2.16e-12),
    (0.3, 450.0, "odd", "1/Gamma(s)"),
    (0.3, 450.0, "even", 1.38e-12),
    (0.3, 451.9, "odd", "1/Gamma(s)"),
    (0.3, 451.9, "even", "4 pi sin(pi s/2)"),
    (2.0, 40.0, "odd", 1.42e-14),
    (2.0, 40.0, "even", 6.76e-16),
    (2.0, -60.0, "odd", 2.18e-14),
    (2.0, -60.0, "even", 3.06e-16),
    (2.0, 100.0, "odd", 9.37e-14),
    (2.0, 100.0, "even", 9.16e-16),
    (2.0, -150.0, "odd", 1.79e-13),
    (2.0, -150.0, "even", 2.01e-15),
    (2.0, 200.0, "odd", 2.51e-14),
    (2.0, 200.0, "even", 1.25e-15),
    (2.0, 300.0, "odd", 1.45e-13),
    (2.0, 300.0, "even", 3.98e-15),
    (2.0, -380.0, "odd", 1.77e-13),
    (2.0, -380.0, "even", 2.4e-15),
    (2.0, 420.0, "odd", 1.89e-13),
    (2.0, 420.0, "even", 4.73e-15),
    (2.0, 450.0, "odd", 6.79e-13),
    (2.0, 450.0, "even", 2.61e-15),
    (2.0, 451.9, "odd", 3.41e-13),
    (2.0, 451.9, "even", 5.39e-15),
]


@pytest.mark.parametrize("d", [5, 13])
@pytest.mark.parametrize("s", [complex(1.0, 80.3), complex(0.3, 120.0), complex(-4.0, 150.0),
                               complex(2.0, 451.9)])
def test_odd_poisson_stops_only_past_the_saddle(d, s):
    """The odd terms fall geometrically only past the saddle v_m = |Im s|/2;
    before it they stay near e^(-pi |Im s|/2) in size, far below any
    absolute floor, and a sum stopped there erred by 0.88 to 1.1 at these
    points after 3 pairs.  The last pair lies past the saddle, and the value
    is within 1e-12 of the binomial series in mpmath."""
    field = make_field(d)
    ev = zeta_odd_poisson(field, s, tol=1e-12)
    last_v = (ev.terms_used - 1) // 2 * math.pi / (2.0 * field.log_eps)
    assert last_v > 0.5 * abs(s.imag), (last_v, ev.terms_used)
    ref = mp_binomial_reference(field, s, "odd")
    assert abs(ev.value - ref) <= 1e-12 * abs(ref), (ev.value, ref)


def test_reflected_routes_far_up_refuse_and_err_as_before():
    """Up to |Im s| = 451.9, where sin(pi s/2) nears the end of double range,
    every point refuses as FAR_UP_BEFORE records, never with a bare
    OverflowError; every point that sums is right to 1e-10, and the
    errors of those points together are within 1.1 times their recorded
    total.  Single points are not held to their old error: the two
    log-gamma sums of a pair err by up to 5e-13 at these heights, in both
    forms, so that any change in how a pair is rounded moves single points
    either way.  Every point that sums stops before 4,000 pairs."""
    field = make_field(5)
    total_before = total_now = 0.0
    for re_s, im_s, parity, before in FAR_UP_BEFORE:
        s = complex(re_s, im_s)
        try:
            value = evaluate(field, s, parity, "poisson", 1e-12).value
        except FibZetaError as exc:
            assert before == getattr(exc, "factor", type(exc).__name__), (s, parity, exc)
            continue
        assert not isinstance(before, str), (s, parity, before)
        ref = mp_binomial_reference(field, s, parity)
        err = abs(value - ref) / abs(ref)
        assert err <= 1e-10, (s, parity, err, before)
        total_before += before
        total_now += err
    assert total_now <= 1.1 * total_before, (total_now, total_before)


def test_in_double_range_turns_only_overflow_into_factor_overflow():
    s = complex(-3.0, 2.0)
    with pytest.raises(FactorOverflowError) as info:
        with _in_double_range("Gamma(1 - s)", s):
            math.exp(1000.0)
    err = info.value
    assert (err.factor, err.s) == ("Gamma(1 - s)", s)
    assert err.__cause__ is None and err.__suppress_context__
    assert isinstance(err.__context__, OverflowError)
    for other in (PoleProximityError(s, 0j, 0, 1, 0.0), ZeroDivisionError("x")):
        with pytest.raises(type(other)) as info:
            with _in_double_range("Gamma(1 - s)", s):
                raise other
        assert info.value is other
    done = []
    with _in_double_range("Gamma(1 - s)", s):
        done.append(1)
    done.append(2)
    assert done == [1, 2]
