import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from fibzeta.complexfn import (
    _HALF_LOG_TWO_PI,
    _LANCZOS_COEFFS,
    _LANCZOS_G,
    _borwein_d,
    _log_gamma_right,
    _log_sin_pi,
    _zeta_borwein,
    cgamma,
    czeta,
    log_gamma,
    rgamma,
)
from fibzeta.crosscheck import _binomial_coefficient
from fibzeta.errors import PoleAtNonpositiveIntegerError, PoleAtOneError

mp.mp.dps = 30

GAMMA_ONE_PLUS_I = complex(0.49801566811835604, -0.15494982830181069)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ----------------------------------------------------------------------- gamma

def test_gamma_half_is_sqrt_pi():
    assert rel_err(cgamma(0.5), math.sqrt(math.pi)) < 1e-14


def test_gamma_five_is_factorial():
    assert rel_err(cgamma(5), 24.0) < 1e-14


def test_gamma_one_plus_i():
    assert rel_err(cgamma(1 + 1j), GAMMA_ONE_PLUS_I) < 1e-13
    # consistency through the recurrence Gamma(z+1) = z Gamma(z)
    assert rel_err(cgamma(2 + 1j), (1 + 1j) * cgamma(1 + 1j)) < 1e-13


@pytest.mark.parametrize("n", [0, -1, -2, -7])
def test_gamma_pole_raises_with_index(n):
    with pytest.raises(PoleAtNonpositiveIntegerError) as exc:
        cgamma(complex(n, 0.0))
    assert exc.value.index == n


def test_gamma_reflection_random_sample():
    rng = random.Random(20240811)
    worst = 0.0
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z.real - round(z.real)) < 0.05 or abs(z - 1) < 0.05:
            continue
        lhs = cgamma(z) * cgamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        worst = max(worst, abs(lhs - 1.0))
        count += 1
    assert worst < 1e-10


def test_gamma_recurrence_on_box():
    rng = random.Random(99)
    worst = 0.0
    count = 0
    while count < 400:
        z = complex(rng.uniform(-20, 20), rng.uniform(-50, 50))
        if min(abs(z - round(z.real)), abs(z + 1 - round(z.real + 1))) < 0.1 and abs(z.imag) < 0.1:
            continue
        worst = max(worst, rel_err(cgamma(z + 1), z * cgamma(z)))
        count += 1
    assert worst < 1e-12


def test_gamma_against_mpmath_on_box():
    rng = random.Random(5)
    worst = 0.0
    count = 0
    while count < 300:
        z = complex(rng.uniform(-20, 20), rng.uniform(-50, 50))
        if z.real <= 0.5 and abs(z.imag) < 0.1 and abs(z.real - round(z.real)) < 0.1:
            continue
        ref = complex(mp.gamma(z))
        worst = max(worst, rel_err(cgamma(z), ref))
        count += 1
    assert worst < 1e-12


def test_rgamma_is_entire_and_zero_at_poles():
    assert rgamma(0.0) == 0.0
    assert abs(rgamma(-3.0)) < 1e-14
    assert rel_err(rgamma(0.5 + 2j), 1.0 / complex(mp.gamma(0.5 + 2j))) < 1e-13


def _log_gamma_right_loop(z):
    """Reference: the Lanczos sum accumulated in a loop over the coefficients."""
    zz = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, 15):
        acc += _LANCZOS_COEFFS[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(acc)


def test_log_gamma_right_equals_the_loop_reference_exactly():
    re_axis = [0.5 + 11.5 * i / 46 for i in range(47)]
    im_axis = [-200.0 + 400.0 * j / 160 for j in range(161)] + [1e-9, -0.3, 0.7071, 123.456]
    for x in re_axis:
        for y in im_axis:
            z = complex(x, y)
            assert _log_gamma_right(z) == _log_gamma_right_loop(z), z


def _log_sin_pi_inline(z):
    """Reference: _log_sin_pi with its constants formed inline on every call."""
    if z.imag > 7.0:
        return (
            -1j * math.pi * z
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
            + complex(-math.log(2.0), 0.5 * math.pi)
        )
    if z.imag < -7.0:
        return (
            1j * math.pi * z
            + cmath.log(1.0 - cmath.exp(-2j * math.pi * z))
            - complex(math.log(2.0), 0.5 * math.pi)
        )
    return cmath.log(cmath.sin(math.pi * z))


@given(
    re=st.floats(min_value=-60.0, max_value=60.0),
    im=st.floats(min_value=7.0, max_value=400.0, exclude_min=True),
    upper=st.booleans(),
)
@hyp_settings(max_examples=400, deadline=None)
def test_log_sin_pi_equals_the_inline_constant_expression_exactly(re, im, upper):
    z = complex(re, im if upper else -im)
    assert _log_sin_pi(z) == _log_sin_pi_inline(z)


def test_log_gamma_matches_mpmath_after_exponentiation():
    # log_gamma is defined up to 2 pi i; exp() must agree
    for z in [complex(-0.5, 40.0), complex(-15.3, -22.0), complex(0.25, -3.75)]:
        assert rel_err(cmath.exp(log_gamma(z)), complex(mp.gamma(z))) < 1e-12


# ------------------------------------------------------------------------ zeta

def test_zeta_two():
    assert rel_err(czeta(2.0), math.pi**2 / 6) < 1e-13


def test_zeta_minus_one():
    assert rel_err(czeta(-1.0), -1.0 / 12.0) < 1e-12


def test_zeta_near_first_nontrivial_zero():
    assert abs(czeta(complex(0.5, 14.134725))) < 1e-4


def _zeta_borwein_big_integer(s, terms):
    """Reference: Borwein's sum with the big-integer weights formed per term."""
    d, dn = _borwein_d(terms)
    acc = 0j
    sign = 1
    for k in range(terms):
        acc += sign * (d[k] - dn) * cmath.exp(-s * math.log(k + 1))
        sign = -sign
    eta_factor = 1.0 - cmath.exp((1.0 - s) * math.log(2.0))
    return -acc / (dn * eta_factor)


@given(
    terms=st.sampled_from(range(24, 97, 8)),
    re=st.floats(min_value=0.5, max_value=10.0),
    im=st.floats(min_value=-90.0, max_value=90.0),
)
@hyp_settings(max_examples=300, deadline=None)
def test_zeta_borwein_equals_the_big_integer_loop_exactly(terms, re, im):
    s = complex(re, im)
    try:
        expected = _zeta_borwein_big_integer(s, terms)
    except ZeroDivisionError:
        # s = 1, where 1 - 2^(1-s) vanishes: both loops must divide by zero
        with pytest.raises(ZeroDivisionError):
            _zeta_borwein(s, terms)
        return
    assert _zeta_borwein(s, terms) == expected


def test_zeta_zero_is_minus_one_half():
    assert rel_err(czeta(0.0), -0.5) < 1e-14
    assert rel_err(czeta(complex(1e-20, -1e-20)), -0.5) < 1e-14


def test_zeta_pole_at_one():
    with pytest.raises(PoleAtOneError):
        czeta(1.0)


def test_zeta_against_mpmath_samples():
    rng = random.Random(31)
    worst = 0.0
    pts = [complex(rng.uniform(-10, 10), rng.uniform(-50, 50)) for _ in range(150)]
    # include the line where the alternating-series factor 1 - 2^(1-s) vanishes
    pts += [complex(1.0, 2 * math.pi * k / math.log(2.0)) for k in (1, 2, 3, -4)]
    pts += [complex(1.0001, 2 * math.pi / math.log(2.0) + 1e-4), complex(0.5, 49.9)]
    # next to s = 0, where the functional equation cancels a zero against a
    # pole, and on both sides of the disk where czeta avoids it
    pts += [0j, 1e-20, -1e-18, 1e-12, complex(1e-6, 1e-6), complex(-3e-20, 2e-20)]
    pts += [r * cmath.exp(1j * t) for r in (3.9e-3, 4.1e-3) for t in (0.3, 2.0, 3.1, 4.5)]
    for s in pts:
        if abs(s - 1.0) < 1e-6:
            continue
        worst = max(worst, rel_err(czeta(s), complex(mp.zeta(s))))
    assert worst < 1e-12


@pytest.mark.parametrize("s", [0.3 + 460j, 0.3 + 1000j, -2 + 600j, 0.49 - 800j, -7 + 455j,
                               0.1 + 2000j])
def test_zeta_far_up_left_of_the_critical_line_matches_mpmath(s):
    # sin(pi s/2) alone leaves double range past |Im s| = 452.3
    with mp.workdps(40):
        ref = complex(mp.zeta(s))
    assert rel_err(czeta(s), ref) < 2e-12


def test_zeta_keeps_the_product_form_of_chi_below_the_log_form_switch():
    s = 0.3 + 420j
    chi = (cmath.exp(s * math.log(2.0) + (s - 1.0) * math.log(math.pi))
           * cmath.sin(0.5 * math.pi * s) * cmath.exp(log_gamma(1.0 - s)))
    assert czeta(s) == chi * czeta(1.0 - s)


def test_zeta_symmetric_functional_equation():
    # xi(s) = 0.5 s (s-1) pi^(-s/2) Gamma(s/2) zeta(s) satisfies xi(s) = xi(1-s)
    def xi(s):
        return 0.5 * s * (s - 1) * cmath.exp(-0.5 * s * math.log(math.pi)) * cgamma(0.5 * s) * czeta(s)

    rng = random.Random(8)
    worst = 0.0
    for _ in range(60):
        s = complex(rng.uniform(-8, 9), rng.uniform(-30, 30))
        if abs(s - 1) < 0.1 or abs(s) < 0.1 or abs(s.imag) < 0.05:
            continue
        worst = max(worst, rel_err(xi(s), xi(1 - s)))
    assert worst < 1e-10


# ----------------------------------------------- binomial coefficients C(-s, k)

def test_binomial_stream_first_values():
    s = complex(2.0, 0.0)
    assert _binomial_coefficient(s, 0) == 1.0  # C(-s, 0)
    assert _binomial_coefficient(s, 1) == -2.0  # C(-s, 1) = -s
    assert _binomial_coefficient(s, 2) == 3.0  # C(-2, 2)


def test_binomial_stream_arbitrary_s_first_term():
    s = complex(0.7, -3.1)
    assert _binomial_coefficient(s, 0) == 1.0
    assert _binomial_coefficient(s, 1) == complex(-0.7, 3.1)


@given(
    st.complex_numbers(min_magnitude=0.0, max_magnitude=6.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=40),
)
@hyp_settings(max_examples=200, deadline=None)
def test_binomial_stream_recurrence(s, k):
    lhs = _binomial_coefficient(s, k + 1) * (k + 1)
    rhs = _binomial_coefficient(s, k) * (-s - k)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


@pytest.mark.parametrize("s", [1.5, complex(2.5, 1.0), complex(-0.3, 4.0), 3.0])
def test_binomial_stream_polynomial_growth(s):
    degree = math.ceil(abs(s))
    coeffs = [_binomial_coefficient(s, k) for k in range(1001)]
    scale = max(abs(c) / (k + 1) ** degree for k, c in enumerate(coeffs[:50]))
    for k, c in enumerate(coeffs):
        assert abs(c) <= 1.0001 * scale * (k + 1) ** degree
