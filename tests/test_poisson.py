import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings as hyp_settings
from hypothesis import strategies as st

from fibzeta import (
    FactorOverflowError,
    NormPlusOneError,
    OutOfRegionError,
    PoleProximityError,
    Settings,
    evaluate,
    make_field,
    nearest_lattice_pole,
    zeta_functional_reconstruction,
)
from fibzeta.continuation import direct_terms_for, zeta_direct, zeta_even_binomial, zeta_odd_binomial
from fibzeta.complexfn import _euler_maclaurin_tail, _log_gamma_right, _log_sin_pi, czeta, log_gamma
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

F5 = make_field(5)
F10 = make_field(10)


def _gamma_ratio(s, w):
    """Gamma(s/2 - i w) / Gamma(1 - s/2 - i w), in log space."""
    return cmath.exp(log_gamma(0.5 * s - 1j * w) - log_gamma(1.0 - 0.5 * s - 1j * w))


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
    assert p.tail == direct.tail
    assert p.method == "poisson"
    assert p.nearest_pole_distance == nearest_lattice_pole(field, s)[3]
    with pytest.raises(AttributeError):
        p.value = 0j
    with pytest.raises(AttributeError):
        p.tail.bound = 0.0


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
    assert RegionSelector.from_settings(Settings(pole_guard_radius=0.5)).classify(0.2) == "left"


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
    assert abs(ev.value - ref) <= max(ev.tail.bound, 1e-12 * abs(ref))


@pytest.mark.parametrize("d", [5, 13, 29])
@pytest.mark.parametrize("re_s", [-3.0, -0.1, 0.3])
@pytest.mark.parametrize("im_s", [40.0, -80.0, 150.0])
def test_even_poisson_is_within_its_bound_far_up_the_axis(d, re_s, im_s):
    """Left and strip points past the saddle of the first pairs, where m0
    grows with |s| and most pairs lie past it."""
    field, s = make_field(d), complex(re_s, im_s)
    ev = zeta_even_poisson(field, s, tol=1e-12)
    ref = _even_reference(field, s)
    assert abs(ev.value - ref) <= max(ev.tail.bound, 1e-12 * abs(ref))


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
    assert abs(ev.value - ref) <= max(ev.tail.bound, 1e-12 * abs(ref))


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
    assert abs(ev.value - ref) <= max(ev.tail.bound, 1e-12 * abs(ref))


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


def _pair_args(re_s, im_s, d, m):
    s = complex(re_s, im_s)
    v = m * math.pi / (2.0 * RATIO_PAIR_FIELDS[d].log_eps)
    return s, v, 0.5 * s


@given(
    re_s=st.floats(min_value=-8.0, max_value=1.0, exclude_max=True),
    im_s=st.floats(min_value=-80.0, max_value=80.0),
    d=st.sampled_from(sorted(RATIO_PAIR_FIELDS)),
    m=st.integers(min_value=1, max_value=200),
)
# (Im(s/2 - i v), Im(s/2 + i v)) on each side of -7 and 7, where _log_sin_pi
# switches branch: (6.95, 13.48), (7.05, 12.31), (-12.67, -6.95),
# (-9.68, -7.05), (-15.52, 17.12), (-0.50, 1.41)
@example(re_s=-2.0, im_s=20.43, d=5, m=1)
@example(re_s=0.9, im_s=19.36, d=13, m=2)
@example(re_s=-0.5, im_s=-19.62, d=29, m=3)
@example(re_s=-5.0, im_s=-16.73, d=13, m=1)
@example(re_s=-3.3, im_s=1.6, d=5, m=5)
@example(re_s=-7.9, im_s=0.91, d=29, m=1)
@hyp_settings(max_examples=400, deadline=None)
def test_odd_reflected_pair_equals_the_two_log_gammas_exactly(re_s, im_s, d, m):
    """A near pair (far_v = inf here, so at any v) is the product of the two
    reflected gammas as log_gamma forms them: Re(s/2) < 1/2, so log_gamma
    reflects both and builds 1 - (s/2 +- i v), the pair's (1 - s/2) -+ i v."""
    _, v, a = _pair_args(re_s, im_s, d, m)
    iv = 1j * v
    expected = cmath.exp(log_gamma(a + iv) + log_gamma(a - iv))
    assert _odd_reflected_pair(a, 1 - a, v, math.inf) == expected


@given(
    re_s=st.floats(min_value=-8.0, max_value=0.5, exclude_max=True),
    im_s=st.floats(min_value=-80.0, max_value=80.0),
    d=st.sampled_from(sorted(RATIO_PAIR_FIELDS)),
    m=st.integers(min_value=1, max_value=200),
)
@example(re_s=-3.3, im_s=17.0, d=13, m=41)
@example(re_s=-2.0, im_s=20.43, d=5, m=1)
@example(re_s=-0.5, im_s=-19.62, d=29, m=3)
@hyp_settings(max_examples=400, deadline=None)
def test_even_pair_equals_the_two_ratio_sum_exactly(re_s, im_s, d, m):
    """A near pair (far_v = inf here) shares its two log-gammas between the
    ratios and gives the float _gamma_ratio(s, v) + _gamma_ratio(s, -v)."""
    s, v, a = _pair_args(re_s, im_s, d, m)
    pair = _even_pair(a, 1 - a, v, math.inf, 4.0 * math.pi * cmath.sin(math.pi * a))
    assert pair == _gamma_ratio(s, v) + _gamma_ratio(s, -v)


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
# 5.4e-13 with 61 terms, not 59
FROZEN_POISSON = [
    (5, "even", complex(0.3, 2.0), (0.5610063221455395-0.21275098527986172j), 7),
    (5, "even", complex(-0.1, 5.5), (1.2642077950512998+1.2078408782122785j), 11),
    (5, "even", complex(0.45, -12.25), (1.9159361237016765+0.2825351332733127j), 25),
    (5, "even", complex(-1.5, 0.5), (-0.6266072680550561+0.24076014735815732j), 7),
    (5, "even", complex(-3.7, 11.0), (-1.662764711447706+0.45735393141602965j), 17),
    (5, "even", complex(-6.2, -4.3), (0.09907639642712336-0.0668096571794473j), 11),
    (5, "odd", complex(0.3, 2.0), (0.7910265627061279-0.5578800190552203j), 7),
    (5, "odd", complex(-2.5, 7.0), (1.6345150077047115-3.2297347629570283j), 9),
    (5, "odd", complex(1.5, -15.0), (0.8606687303594445-0.35064956105364753j), 13),
    (13, "even", complex(0.3, 2.0), (-0.10776260209554524-0.6605860001960902j), 13),
    (13, "even", complex(-0.1, 5.5), (0.14974411161247425-1.5487687587253265j), 25),
    (13, "even", complex(0.45, -12.25), (0.41413577017886893+0.3073608431949224j), 61),
    (13, "even", complex(-1.5, 0.5), (-0.1443136655844526-0.02209891861181497j), 13),
    (13, "even", complex(-3.7, 11.0), (-0.17007778341484128-0.112630717197928j), 35),
    (13, "even", complex(-6.2, -4.3), (-0.007526025088378017-0.005655825606078445j), 21),
    (13, "odd", complex(0.3, 2.0), (0.748996155491138+0.38827349199207123j), 17),
    (13, "odd", complex(-2.5, 7.0), (0.03811172025876877-0.11880438161733517j), 19),
    (13, "odd", complex(1.5, -15.0), (0.9686751243662619+0.001413793591019702j), 27),
    # norm +1, recorded before the even form lost its overlap bands
    (3, "even", complex(0.3, 2.0), (0.600050544594124-0.06933418371246042j), 9),
    (3, "even", complex(-0.1, 5.5), (0.05369817964590046-0.602567377075632j), 15),
    (3, "even", complex(-1.5, 0.5), (-0.2542844224566854+0.02552933020668366j), 9),
    (3, "even", complex(-3.7, 11.0), (-0.1264954920263387+0.08759374873035126j), 21),
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
def test_pair_loops_take_two_sines_and_two_log_gammas_per_near_pair(
    monkeypatch, parity, s, pairs, reflected
):
    """Outside the pair loops fibzeta.poisson calls log_gamma for Gamma(1 - s)
    (even) or for the m = 0 term (odd); the even m = 0 ratio takes one
    _log_sin_pi and one _log_gamma_right call.  A near reflected pair takes
    two _log_sin_pi and two _log_gamma_right calls; a far one (v_m >
    |Im s|/2 + 7) and a pair where s/2 does not reflect take the two
    _log_gamma_right calls alone."""
    seen = {"log_gamma": 0, "log_sin_pi": 0, "log_gamma_right": 0}

    def counting(name, fn):
        def wrapper(*args):
            seen[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr("fibzeta.poisson.log_gamma", counting("log_gamma", log_gamma))
    monkeypatch.setattr("fibzeta.poisson._log_sin_pi", counting("log_sin_pi", _log_sin_pi))
    monkeypatch.setattr(
        "fibzeta.poisson._log_gamma_right", counting("log_gamma_right", _log_gamma_right)
    )
    evaluator = zeta_even_poisson if parity == "even" else zeta_odd_poisson
    field = RATIO_PAIR_FIELDS[29]
    ev = evaluator(field, s, tol=1e-10)
    assert ev.terms_used == 2 * pairs + 1
    step = math.pi / (2.0 * field.half_unit.log_eta)  # log eps for a norm -1 unit
    far = sum(1 for m in range(1, pairs + 1) if step * m > abs(s.imag) / 2 + 7.0)
    m0_term = 1 if parity == "even" else 0
    assert seen == {
        "log_gamma": 1,
        "log_sin_pi": (2 * (pairs - far) if reflected else 0) + m0_term,
        "log_gamma_right": 2 * pairs + m0_term,
    }


@given(
    re_s=st.floats(min_value=-8.0, max_value=4.0),
    im_s=st.floats(min_value=-20.0, max_value=20.0),
    beyond=st.floats(min_value=0.0, max_value=300.0, exclude_min=True),
)
@example(re_s=-0.5, im_s=0.0, beyond=1e-12)
@example(re_s=-7.9, im_s=-20.0, beyond=299.0)
@example(re_s=0.0, im_s=10.224334928717653, beyond=215.60345177386932)
@hyp_settings(max_examples=300, deadline=None)
def test_far_pairs_equal_the_near_pair_in_closed_form(re_s, im_s, beyond):
    """Past v = |Im s|/2 + 7 each pair folds its sines into one exp: the
    closed form is the pair its two sines and two log-gammas give, to
    1e-14 (1 + v) relative, for the even ratio pair and the odd reflected
    gamma product, on the grid box Re s in [-8, 4], |Im s| <= 20 (the odd
    pair reflects only where Re s < 1; the even reflection holds on all of
    it).  Far out the odd pair is subnormal (5.6e-313 at the third example),
    where its two forms may differ by a step of 2^-1074 that the relative
    bound is below, so its comparison allows a few such steps."""
    s = complex(re_s, im_s)
    a = 0.5 * s
    far_v = abs(a.imag) + 7.0
    v = far_v + beyond
    # the two terms of the even pair cancel where sin(pi s/2) = 0, so its
    # error is measured against their size
    terms = (_gamma_ratio(s, v), _gamma_ratio(s, -v))
    closed = _even_pair(a, 1 - a, v, far_v, 4.0 * math.pi * cmath.sin(math.pi * a))
    assert abs(closed - sum(terms)) <= 1e-14 * (1.0 + v) * (abs(terms[0]) + abs(terms[1]))
    if re_s < 1.0:
        odd = _odd_reflected_pair(a, 1 - a, v, math.inf)
        closed = _odd_reflected_pair(a, 1 - a, v, far_v)
        assert abs(closed - odd) <= 1e-14 * (1.0 + v) * abs(odd) + 4.0 * 2.0**-1074


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
