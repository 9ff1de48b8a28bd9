import math
import random

import pytest

from fibzeta import (
    NearOneSingularityError,
    NormPlusOneError,
    OutOfRegionError,
    PoleProximityError,
    TooSlowConvergenceError,
    fourier_coefficient_odd,
    make_field,
    make_settings,
    nearest_lattice_pole,
    regularized_fourier_integral,
    zeta_even_binomial,
    zeta_even_poisson,
    zeta_functional_reconstruction,
    zeta_odd_binomial,
    zeta_odd_poisson,
)
from fibzeta.poisson import (
    RegionSelector,
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


def test_region_selector_classification():
    sel = RegionSelector()
    assert sel.classify(2.5) == "direct"
    assert sel.classify(0.2) == "strip"
    assert sel.classify(complex(-0.25, 3.0)) == "left"
    assert sel.classify(complex(-0.1, 0.0)) == "strip"
    ext = RegionSelector(direct_min=1.8)
    assert ext.classify(complex(1.02, 0.0)) == "direct"  # inside the s=1 disk
    assert ext.classify(complex(1.5, 0.0)) == "strip"


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
    settings = make_settings(region_direct_min=1.8)
    ev = zeta_even_poisson(F5, complex(1.02, 0.0), tol=1e-12, settings=settings)
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
