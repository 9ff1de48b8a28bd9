import cmath
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings as hyp_settings
from hypothesis import strategies as st

from fibzeta import complexfn
from fibzeta.complexfn import _log_gamma_right, _log_sin_pi, cgamma, czeta, log_gamma, rgamma
from fibzeta.errors import PoleAtNonpositiveIntegerError, PoleAtOneError, TooSlowConvergenceError

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


def _log_error(value, z):
    """|value - log Gamma(z)| with the difference taken mod 2 pi i: the
    absolute error of the log, the relative error of Gamma(z) itself."""
    diff = complex(mp.mpc(value.real, value.imag) - mp.loggamma(mp.mpc(z.real, z.imag)))
    return abs(complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi)))


@pytest.mark.parametrize("box", ["shifted", "wide", "edges"])
def test_log_gamma_right_matches_mpmath(box):
    """Stirling's series at z + n, less the log of the n shift factors: its
    error is the rounding of the logs summed, below 1e-14 max(1, |z| log |z|)
    on Re z in [0.5, 40], |Im z| <= 60.  "shifted" samples |z| < 10, where n
    is 1 to 10; "edges" holds z = 0.5 (ten steps), small z and the points
    1e-9 either side of |z| = 10, which take one step and none."""
    rng = random.Random(20261019)
    if box == "shifted":
        points = [complex(rng.uniform(0.5, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(400)]
    elif box == "wide":
        points = [complex(rng.uniform(0.5, 40.0), rng.uniform(-60.0, 60.0)) for _ in range(400)]
    else:
        points = [0.5 + 0j, complex(0.5, 1e-300), 1.0 + 0j, 2.0 + 0j, complex(0.5, -9.98),
                  complex(40.0, 60.0), complex(0.5, -60.0)]
        points += [cmath.rect(10.0 + d, angle) for d in (1e-9, -1e-9)
                   for angle in (-1.52, -1.0, -0.3, 0.0, 0.7, 1.3, 1.5205)]
    for z in points:
        assert z.real >= 0.5
        bound = 1e-14 * max(1.0, abs(z) * math.log(abs(z)))
        assert _log_error(_log_gamma_right(z), z) <= bound, z


def _log_sin_pi_inline(z):
    """Reference: the long form of _log_sin_pi, with its constants formed
    inline on every call and the term log(1 - e^(+-2 pi i z)) kept, which is
    below 8e-20 past |Im z| = 7."""
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


_ABOVE_SEVEN = math.nextafter(7.0, math.inf)


@given(
    re=st.one_of(
        st.floats(min_value=-60.0, max_value=60.0),
        st.floats(min_value=-1e-3, max_value=1e-3),
        st.integers(min_value=-60, max_value=60).map(float),
    ),
    im=st.one_of(
        st.floats(min_value=7.0, max_value=400.0, exclude_min=True),
        st.floats(min_value=7.0, max_value=7.5, exclude_min=True),
    ),
    upper=st.booleans(),
)
@example(re=0.0, im=_ABOVE_SEVEN, upper=True)
@example(re=-0.0, im=_ABOVE_SEVEN, upper=False)
@example(re=5e-324, im=7.25, upper=True)
@example(re=-1e-300, im=7.25, upper=False)
@example(re=2.3e-4, im=_ABOVE_SEVEN, upper=True)
@example(re=0.25, im=_ABOVE_SEVEN, upper=False)
@example(re=-17.0, im=8.0, upper=True)
@hyp_settings(max_examples=400, deadline=None)
def test_log_sin_pi_equals_the_inline_constant_expression_exactly(re, im, upper):
    """Dropping log(1 - e^(+-2 pi i z)) changes no bit: it is below 2e-19 of
    pi |Im z| in the real part and of pi Re z in the imaginary one, so both
    sums round it away (and it is exactly 0 in the imaginary part at Re z = 0)."""
    z = complex(re, im if upper else -im)
    assert _log_sin_pi(z) == _log_sin_pi_inline(z)


def test_log_gamma_matches_mpmath_after_exponentiation():
    # log_gamma is defined up to 2 pi i; exp() must agree
    for z in [complex(-0.5, 40.0), complex(-15.3, -22.0), complex(0.25, -3.75)]:
        assert rel_err(cmath.exp(log_gamma(z)), complex(mp.gamma(z))) < 1e-12


def test_bernoulli_table_satisfies_the_exact_recurrence():
    """B_2 .. B_28 of the one table: sum_{k < n} C(n, k) B_k = 0 for every
    2 <= n <= 29, in exact arithmetic, with B_0 = 1, B_1 = -1/2 and the other
    odd B_k = 0.  Each n pins B_(n-1), so a mistyped entry fails here."""
    table = complexfn._BERNOULLI_EVEN
    assert len(table) == 14 and all(isinstance(b, Fraction) for b in table)
    bernoulli = [Fraction(1), Fraction(-1, 2)]
    for k in range(2, 29):
        bernoulli.append(table[k // 2 - 1] if k % 2 == 0 else Fraction(0))
    for n in range(2, 30):
        assert sum(math.comb(n, k) * bernoulli[k] for k in range(n)) == 0, n


def test_stirling_coefficients_from_the_table_are_the_rounded_fractions():
    """B_2k / (2k (2k - 1)) for k = 1..7, derived from the table, equal the
    floats of the fractions written out, bit for bit."""
    derived = (complexfn._S1, complexfn._S2, complexfn._S3, complexfn._S4, complexfn._S5,
               complexfn._S6, complexfn._S7)
    written = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
    assert derived == tuple(complex(c, 0.0) for c in written)


# ------------------------------------------------------------------------ zeta

def test_zeta_two():
    assert rel_err(czeta(2.0), math.pi**2 / 6) < 1e-13


def test_zeta_minus_one():
    assert rel_err(czeta(-1.0), -1.0 / 12.0) < 1e-12


def test_zeta_near_first_nontrivial_zero():
    assert abs(czeta(complex(0.5, 14.134725))) < 1e-4


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
    # include the zeros of 1 - 2^(1-s) on the line Re s = 1
    pts += [complex(1.0, 2 * math.pi * k / math.log(2.0)) for k in (1, 2, 3, -4)]
    pts += [complex(1.0001, 2 * math.pi / math.log(2.0) + 1e-4), complex(0.5, 49.9)]
    # next to s = 0, where the functional equation cancels a zero against a
    # pole, and on both sides of the disk where czeta avoids it
    pts += [0j, 1e-20, -1e-18, 1e-12, complex(1e-6, 1e-6), complex(-3e-20, 2e-20)]
    pts += [r * cmath.exp(1j * t) for r in (0.0199, 0.0201) for t in (0.3, 2.0, 3.1, 4.5)]
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


def _eta_zero_neighbours():
    """Points within 0.05 of zeros 1 + 2 pi i k / log 2 of 1 - 2^(1-s)."""
    points = []
    for k in (1, -1, 2, 3, -7, 12):
        zero = complex(1.0, 2.0 * math.pi * k / math.log(2.0))
        points += [zero + cmath.rect(0.0499, angle) for angle in (0.0, 1.0, 2.0, 3.0, 4.2, 5.5)]
    return points


# lines where czeta once switched algorithms: |Im s| = 90 (on the left for
# zeta(1 - s)), the zeros of 1 - 2^(1-s), and |Im s| = 450 left of 1/2
ZETA_SWITCH_LINES = {
    "im_90": [complex(x, sign * (90.0 + d)) for x in (0.5, 0.8, 1.0, 3.0, -2.0, 0.3)
              for sign in (1, -1) for d in (1e-9, -1e-9)],
    "eta_zeros": _eta_zero_neighbours(),
    "im_450_left": [complex(x, sign * (450.0 + d)) for x in (0.49, 0.3, -0.2, -3.0, -17.0, -30.0)
                    for sign in (1, -1) for d in (1e-9, -1e-9)],
}


@pytest.mark.parametrize("line", sorted(ZETA_SWITCH_LINES))
def test_zeta_matches_mpmath_at_the_old_switch_lines(line):
    for s in ZETA_SWITCH_LINES[line]:
        with mp.workdps(40):
            ref = complex(mp.zeta(s))
        assert rel_err(czeta(s), ref) < 1e-12, s


def _zeta_scale(s):
    """The size czeta's rounding is measured against: |zeta(s)|, at least 1,
    for Re s >= 1/2 and |s| < 1/2; elsewhere the functional equation's
    chi(s) zeta(1 - s) with |sin(pi s/2)| replaced by its bound
    cosh(pi Im s / 2), since the sine's argument is rounded, and
    |zeta(1 - s)| at least 1.  A plain relative error is unbounded at the
    zeros of either factor."""
    if s.real >= 0.5 or abs(s) < 0.5:
        return max(float(abs(mp.zeta(s))), 1.0)
    chi_bound = abs(mp.power(2, s) * mp.power(mp.pi, s - 1) * mp.gamma(1 - s)) * mp.cosh(
        mp.pi * s.imag / 2
    )
    return float(chi_bound * max(abs(mp.zeta(1 - s)), 1))


@given(
    re=st.floats(min_value=-30.0, max_value=30.0),
    im=st.floats(min_value=-500.0, max_value=500.0),
)
@example(re=0.5, im=500.0)
@example(re=-30.0, im=0.0)
@example(re=-30.0, im=-500.0)
@example(re=0.49999999999, im=389.177653274544)
@example(re=-9.751634663260884, im=-453.05783310891667)
@example(re=1.0, im=1e-9)
@example(re=0.0, im=0.0)
@hyp_settings(max_examples=300, deadline=None)
def test_zeta_matches_mpmath_on_the_box(re, im):
    """Re s in [-30, 30], |Im s| <= 500: within 1e-12 of _zeta_scale."""
    s = complex(re, im)
    if abs(s - 1.0) < 1e-12:
        with pytest.raises(PoleAtOneError):
            czeta(s)
        return
    with mp.workdps(40):
        err = float(abs(mp.mpc(czeta(s)) - mp.zeta(s)))
        assert err <= 1e-12 * _zeta_scale(s), s


@pytest.mark.parametrize("s", [0.6 + 1e300j, 0.1 + 1e12j, complex(0.6, 2e5), complex(-3.0, -1e7)])
def test_zeta_refuses_more_terms_than_its_cap_before_summing(s):
    """The Euler-Maclaurin sum needs 0.6 |s| + 6 terms, above 100,000 past
    |s| ~ 1.7e5; it raises before its loop, on either side of Re s = 1/2."""
    start = time.perf_counter()
    with pytest.raises(TooSlowConvergenceError):
        czeta(s)
    assert time.perf_counter() - start < 0.05


def test_zeta_sums_up_to_its_cap():
    """96,006 terms, just under the cap: 6e-12 from mpmath, the rounding of
    phases of size 1.6e5 log k."""
    s = complex(0.6, 1.6e5)
    assert rel_err(czeta(s), complex(mp.zeta(s))) < 1e-10


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
