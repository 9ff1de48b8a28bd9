import math
import random

import pytest
from hypothesis import example, given, settings as hyp_settings
from hypothesis import strategies as st

from fibzeta import (
    NearOneSingularityError,
    NormPlusOneError,
    OutOfRegionError,
    PoleProximityError,
    Settings,
    TooSlowConvergenceError,
    fourier_coefficient_odd,
    make_field,
    nearest_lattice_pole,
    regularized_fourier_integral,
    zeta_even_binomial,
    zeta_even_poisson,
    zeta_functional_reconstruction,
    zeta_odd_binomial,
    zeta_odd_poisson,
)
from fibzeta import complexfn
from fibzeta.continuation import direct_terms_for, zeta_direct
from fibzeta.complexfn import log_gamma
from fibzeta.suites import fourier_quadrature
from fibzeta.poisson import (
    RegionSelector,
    _gamma_ratio,
    _ratio_pair,
    zeta_even_poisson_left,
    zeta_even_poisson_strip,
)

F5 = make_field(5)
F10 = make_field(10)

# frozen values from high-precision quadrature of the defining integrals
# (tanh-sinh near zero where the regularized integrand needs extra digits,
# oscillatory quadrature with Richardson extrapolation on the tail)
REGULARIZED_INTEGRAL_D5_S15_M1 = complex(0.003500850553122278, -0.003500856369253147)
REGULARIZED_INTEGRAL_D10_S25_M3 = complex(-0.011230420334078847, -0.011230255804447188)
FOURIER_D5_S1_M1 = 8.081258539205152e-09


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
        zeta_odd_poisson(make_field(3), 2.0)


# ---------------------------------------------------------- fourier coefficient

def test_fourier_coefficient_m0_closed_forms():
    # Gamma(1)^2 / Gamma(2) = 1
    val = fourier_coefficient_odd(F5, 2.0, 0)
    assert abs(val - 1.0 / (2.0 * F5.log_eps)) < 1e-13
    # Gamma(1/2)^2 = pi
    val = fourier_coefficient_odd(F5, 1.0, 0)
    assert abs(val - math.pi / (2.0 * F5.log_eps)) < 1e-13


def test_fourier_coefficient_against_quadrature():
    import mpmath as mp

    phi = (1.0 + math.sqrt(5.0)) / 2.0

    def f(x):
        return 1.0 / (phi**x + phi**-x)

    # double precision is enough for these tolerances (a global higher
    # mp.dps set by another test module would double the cost)
    with mp.workdps(15):
        ref0 = float(mp.quad(f, [0, 60]))
        ref1, err1 = mp.quad(lambda x: f(x) * mp.cos(2 * mp.pi * x), mp.linspace(0, 60, 61),
                             error=True)
        ref1 = float(ref1)
    val0 = fourier_coefficient_odd(F5, 1.0, 0)
    assert abs(val0 - 2.0 * ref0) < 1e-8

    val1 = fourier_coefficient_odd(F5, 1.0, 1)
    assert err1 < 1e-10
    assert abs(val1 - 2.0 * ref1) < 1e-8
    assert abs(val1 - FOURIER_D5_S1_M1) < 1e-14 + 1e-6 * abs(val1)


@pytest.mark.parametrize("m", [0, 1])
def test_fourier_quadrature_agrees_with_a_40_digit_integral(m):
    """The trapezoid reference of the special-functions suite."""
    import mpmath as mp

    with mp.workdps(40):
        phi = (1 + mp.sqrt(5)) / 2
        # one cosine period per interval, and phi^-50 ~ 4e-11 before the last
        ref = 2 * mp.quad(lambda x: mp.cos(2 * mp.pi * m * x) / (phi**x + phi**-x),
                          mp.linspace(0, 50, 51) + [mp.inf])
        assert abs(fourier_quadrature(m) - ref) < 1e-12


def test_fourier_coefficient_conjugate_in_m():
    val_p = fourier_coefficient_odd(F5, 1.5, 2)
    val_m = fourier_coefficient_odd(F5, 1.5, -2)
    assert abs(val_p - val_m.conjugate()) < 1e-15 * abs(val_p) + 1e-18


def test_fourier_coefficient_pole_guard():
    # s/2 - pi i m / log eps hits a gamma pole only for real frequencies that
    # cancel the imaginary part; engineered: s = -2 + 2 pi i / log eps, m = 1
    w = math.pi / F5.log_eps
    s = complex(-2.0, 2.0 * w)
    with pytest.raises(PoleProximityError):
        fourier_coefficient_odd(F5, s, 1)


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
    p = zeta_even_poisson(field, s, tol=tol)
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
    assert sel.classify(0.2) == "strip"
    assert sel.classify(complex(-0.25, 3.0)) == "left"
    assert sel.classify(complex(-0.1, 0.0)) == "strip"
    assert sel.classify(complex(0.49, 5.0)) == "strip"
    assert sel.classify(complex(0.5, 5.0)) == "direct"
    assert sel.classify(complex(1.02, 0.0)) == "direct"  # inside the s=1 disk
    assert RegionSelector.from_settings(Settings(pole_guard_radius=0.5)).classify(0.2) == "strip"


def test_strip_overlap_with_left():
    rng = random.Random(11)
    worst = 0.0
    checked = 0
    while checked < 12:
        s = complex(rng.uniform(-0.5, -0.25), rng.uniform(-6, 6))
        if nearest_lattice_pole(F5, s)[3] <= 0.08:
            continue
        a = zeta_even_poisson_strip(F5, s, tol=1e-12)
        b = zeta_even_poisson_left(F5, s, tol=1e-12)
        worst = max(worst, abs(a.value - b.value))
        checked += 1
    assert worst < 1e-8


def test_strip_overlap_with_direct():
    rng = random.Random(12)
    worst = 0.0
    checked = 0
    while checked < 12:
        s = complex(rng.uniform(0.5, 1.5), rng.uniform(-4, 4))
        if abs(s - 1.0) <= 0.12 or nearest_lattice_pole(F5, s)[3] <= 0.08:
            continue
        a = zeta_even_poisson_strip(F5, s, tol=1e-11)
        b = zeta_even_poisson(F5, s, tol=1e-12)  # direct region
        worst = max(worst, abs(a.value - b.value))
        checked += 1
    assert worst < 1e-8


def test_strip_near_one_raises_and_public_api_redirects():
    with pytest.raises(NearOneSingularityError):
        zeta_even_poisson_strip(F5, complex(1.02, 0.0))
    ev = zeta_even_poisson(F5, complex(1.02, 0.0), tol=1e-12)
    b = zeta_even_binomial(F5, complex(1.02, 0.0), tol=1e-12)
    assert abs(ev.value - b.value) < 1e-9


def test_strip_rejects_right_of_two():
    with pytest.raises(OutOfRegionError):
        zeta_even_poisson_strip(F5, 2.3)


def test_left_plain_truncation_validates_accelerated():
    s = -3.25
    plain = zeta_even_poisson_left(F5, s, tol=1e-9, accelerated=False)
    accel = zeta_even_poisson_left(F5, s, tol=1e-12)
    assert abs(plain.value - accel.value) < 5e-9
    assert plain.terms_used > accel.terms_used


def test_left_plain_truncation_refuses_slow_zone():
    with pytest.raises(TooSlowConvergenceError):
        zeta_even_poisson_left(F5, -0.1, tol=1e-8, accelerated=False)
    with pytest.raises(TooSlowConvergenceError):
        zeta_even_poisson_left(F5, -0.5, tol=1e-10, accelerated=False)


def test_left_rejects_nonnegative_re():
    with pytest.raises(OutOfRegionError):
        zeta_even_poisson_left(F5, 0.3)


# ---------------------------------------------------------- conjugate symmetry

@pytest.mark.parametrize("s", [complex(1.4, 2.0), complex(-1.3, 5.0), complex(0.1, -3.0)])
def test_conjugate_symmetry_all_methods(s):
    for fun in (zeta_odd_binomial, zeta_even_binomial, zeta_odd_poisson, zeta_even_poisson):
        a = fun(F5, s, tol=1e-12).value
        b = fun(F5, s.conjugate(), tol=1e-12).value
        assert abs(a - b.conjugate()) < 1e-10 * max(1.0, abs(a))


# ------------------------------------------------------- regularized integrals

def test_regularized_integral_d5():
    val = regularized_fourier_integral(F5, 1.5, 1)
    assert abs(val - REGULARIZED_INTEGRAL_D5_S15_M1) < 1e-8


def test_regularized_integral_conjugate_frequency():
    val_p = regularized_fourier_integral(F5, 1.5, 1)
    val_m = regularized_fourier_integral(F5, 1.5, -1)
    assert abs(val_m - val_p.conjugate()) < 1e-15


def test_regularized_integral_d10():
    val = regularized_fourier_integral(F10, 2.5, 3)
    assert abs(val - REGULARIZED_INTEGRAL_D10_S25_M3) < 1e-7


def test_regularized_integral_rejects_zero_frequency():
    with pytest.raises(ValueError):
        regularized_fourier_integral(F5, 1.5, 0)


def test_regularized_integral_gamma_pole_guard():
    with pytest.raises(PoleProximityError):
        regularized_fourier_integral(F5, 2.0, 1)


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


@given(
    re_s=st.floats(min_value=-8.0, max_value=1.95, exclude_max=True),
    im_s=st.floats(min_value=-80.0, max_value=80.0),
    d=st.sampled_from(sorted(RATIO_PAIR_FIELDS)),
    m=st.integers(min_value=1, max_value=200),
)
@example(re_s=-3.3, im_s=17.0, d=13, m=41)  # shared Lanczos values
@example(re_s=1.5, im_s=-12.0, d=5, m=7)  # Re s >= 1: the four-call sum
@hyp_settings(max_examples=400, deadline=None)
def test_ratio_pair_equals_the_two_ratio_sum_exactly(re_s, im_s, d, m):
    s = complex(re_s, im_s)
    v = m * math.pi / (2.0 * RATIO_PAIR_FIELDS[d].log_eps)
    assert _ratio_pair(s, v) == _gamma_ratio(s, v) + _gamma_ratio(s, -v)


@pytest.mark.parametrize("s, calls", [(complex(-2.7, 9.0), 2), (complex(0.95, -3.0), 2),
                                      (complex(1.0, 4.0), 4), (complex(1.6, 0.5), 4)])
def test_ratio_pair_evaluates_two_log_gammas_left_of_one(monkeypatch, s, calls):
    args = []

    def counting(z):
        args.append(z)
        return log_gamma(z)

    monkeypatch.setattr("fibzeta.poisson.log_gamma", counting)
    _ratio_pair(s, 1.3)
    assert len(args) == calls
    if calls == 2:
        # only the denominators 1 - s/2 -+ i v, which need no reflection
        assert all(z.real >= 0.5 for z in args)


# repr values recorded before the gamma-ratio pairs shared their Lanczos
# values and before the Lanczos sum lost its loop; both changes keep every
# float, so these must repeat exactly: (D, form, s, value, terms_used)
FROZEN_POISSON = [
    (5, "even", complex(0.3, 2.0), (0.5610063221450912-0.21275098527916342j), 43),
    (5, "even", complex(-0.1, 5.5), (1.2642077950519084+1.2078408782124797j), 101),
    (5, "even", complex(0.45, -12.25), (1.9159361237004715+0.28253513327379864j), 411),
    (5, "even", complex(-1.5, 0.5), (-0.6266072680554785+0.24076014735803491j), 13),
    (5, "even", complex(-3.7, 11.0), (-1.6627647114479451+0.4573539314157088j), 55),
    (5, "even", complex(-6.2, -4.3), (0.09907639642693082-0.06680965717923218j), 17),
    (5, "odd", complex(0.3, 2.0), (0.7910265627061253-0.5578800190552188j), 7),
    (5, "odd", complex(-2.5, 7.0), (1.6345150077047164-3.2297347629570217j), 9),
    (5, "odd", complex(1.5, -15.0), (0.8606687303594369-0.3506495610536581j), 13),
    (5, "plain", complex(-3.5, 1.0), (0.15690904236187858-0.08164138132506904j), 69),
    (5, "plain", complex(-5.25, -2.0), (-0.02592013211974791+0.007838180466004561j), 23),
    (5, "strip", complex(1.5, 3.0), (0.8457836330828984+0.029514036272694194j), 91),
    (5, "strip", complex(1.2, -0.5), (1.2646814617583764+0.24563215522897286j), 37),
    (13, "even", complex(0.3, 2.0), (-0.10776260209644706-0.6605860001960463j), 109),
    (13, "even", complex(-0.1, 5.5), (0.14974411161188944-1.548768758725048j), 245),
    (13, "even", complex(0.45, -12.25), (0.4141357701775332+0.30736084319504053j), 1009),
    (13, "even", complex(-1.5, 0.5), (-0.14431366558490227-0.02209891861203902j), 29),
    (13, "even", complex(-3.7, 11.0), (-0.17007778340284102-0.1126307172016203j), 109),
    (13, "even", complex(-6.2, -4.3), (-0.007526025088323379-0.005655825605742928j), 33),
    (13, "odd", complex(0.3, 2.0), (0.7489961554911357+0.38827349199206973j), 17),
    (13, "odd", complex(-2.5, 7.0), (0.03811172025876826-0.1188043816173347j), 19),
    (13, "odd", complex(1.5, -15.0), (0.9686751243662575+0.0014137935910211036j), 27),
    (13, "plain", complex(-3.5, 1.0), (0.0129705478020445+0.010914050341953023j), 105),
    (13, "plain", complex(-5.25, -2.0), (0.0024525488781564565+0.011673911127156548j), 35),
    (13, "strip", complex(1.5, 3.0), (-0.192664072671059+0.034317818307706305j), 227),
    (13, "strip", complex(1.2, -0.5), (0.22469389909823678+0.15465045200950045j), 87),
]


@pytest.mark.parametrize("d, form, s, value, terms", FROZEN_POISSON)
def test_poisson_values_repeat_bit_for_bit(d, form, s, value, terms):
    field = RATIO_PAIR_FIELDS[d]
    if form == "even":  # strip region for Re s > -0.25, left region below
        ev = zeta_even_poisson(field, s, tol=1e-12)
    elif form == "odd":
        ev = zeta_odd_poisson(field, s, tol=1e-12)
    elif form == "plain":  # the unaccelerated left-region sum
        ev = zeta_even_poisson_left(field, s, tol=1e-8, accelerated=False)
    else:  # strip form at Re s >= 1, where the pairs take the four-call sum
        ev = zeta_even_poisson_strip(field, s, tol=1e-12)
    assert (ev.value, ev.terms_used) == (value, terms)


@pytest.mark.parametrize("parity, s, calls, outside", [
    ("even", complex(-3.7, 11.0), 83, 0),  # left region
    ("even", complex(0.2, 15.0), 839, 1),  # strip region: czeta(s) reflects
    ("odd", complex(-3.7, 11.0), 25, 1),  # 1/Gamma(s) in rgamma
    ("odd", complex(0.2, 15.0), 31, 1),
])
def test_poisson_lanczos_sums_go_through_log_gamma(monkeypatch, parity, s, calls, outside):
    """The benchmark tracer counts log_gamma through fibzeta.poisson's binding.
    The even left and strip forms call it terms_used + 2 times (Gamma(1 - s)
    and the m = 0 ratio besides the pairs), the odd series terms_used times;
    the only Lanczos sums outside it are those of rgamma and czeta."""
    calls_seen, lanczos_seen = [], []
    lanczos = complexfn._log_gamma_right

    def counting(z):
        calls_seen.append(z)
        return log_gamma(z)

    def counting_lanczos(z):
        lanczos_seen.append(z)
        return lanczos(z)

    monkeypatch.setattr("fibzeta.poisson.log_gamma", counting)
    monkeypatch.setattr("fibzeta.complexfn._log_gamma_right", counting_lanczos)
    evaluator = zeta_even_poisson if parity == "even" else zeta_odd_poisson
    ev = evaluator(RATIO_PAIR_FIELDS[29], s, tol=1e-10)
    assert len(calls_seen) == calls
    assert calls == ev.terms_used + (2 if parity == "even" else 0)
    assert len(lanczos_seen) == calls + outside
