import cmath
import math
import random

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
from fibzeta import complexfn
from fibzeta.continuation import direct_terms_for, zeta_direct, zeta_even_binomial, zeta_odd_binomial
from fibzeta.complexfn import _log_gamma_right, _log_sin_pi, _reflection_logs, log_gamma
from fibzeta.poisson import (
    RegionSelector,
    _gamma_ratio,
    _in_double_range,
    zeta_even_poisson,
    zeta_even_poisson_strip,
    zeta_odd_poisson,
)

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
    assert sel.classify(0.2) == "strip"
    assert sel.classify(complex(-0.25, 3.0)) == "left"
    assert sel.classify(complex(-0.1, 0.0)) == "strip"
    assert sel.classify(complex(0.49, 5.0)) == "strip"
    assert sel.classify(complex(0.5, 5.0)) == "direct"
    assert sel.classify(complex(1.02, 0.0)) == "direct"  # inside the s=1 disk
    assert RegionSelector.from_settings(Settings(pole_guard_radius=0.5)).classify(0.2) == "strip"


def test_even_poisson_near_one_takes_the_direct_series():
    ev = zeta_even_poisson(F5, complex(1.02, 0.0), tol=1e-12)
    b = zeta_even_binomial(F5, complex(1.02, 0.0), tol=1e-12)
    assert abs(ev.value - b.value) < 1e-9


@pytest.mark.parametrize("re_s", [-0.25, 0.5, 0.6, 1.5, -3.0])
def test_strip_form_refuses_points_outside_the_strip(re_s):
    with pytest.raises(OutOfRegionError):
        zeta_even_poisson_strip(F5, complex(re_s, 2.0))


SEAM_FIELDS = {d: make_field(d) for d in (3, 5, 13)}


@pytest.mark.parametrize("d, parity", [(5, "even"), (13, "even"), (3, "combined")])
@pytest.mark.parametrize("re_s", [-0.25 - 1e-9, -0.25, -0.25 + 1e-9, 0.5 - 1e-9, 0.5])
@pytest.mark.parametrize("im_s", [0.7, 4.5, -11.0])
def test_even_poisson_agrees_with_binomial_across_the_region_seams(d, parity, re_s, im_s):
    """Each side of the left/strip seam at Re s = -0.25 and the strip/direct
    seam at Re s = 0.5 (D = 3 is norm +1: its combined zeta is the even one)."""
    field, s = SEAM_FIELDS[d], complex(re_s, im_s)
    p = evaluate(field, s, parity, "poisson", 1e-12)
    b = evaluate(field, s, parity, "binomial", 1e-12)
    assert abs(p.value - b.value) <= 1e-10 * abs(b.value)


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


def _pair_logs(re_s, im_s, d, m):
    s = complex(re_s, im_s)
    v = m * math.pi / (2.0 * RATIO_PAIR_FIELDS[d].log_eps)
    a = 0.5 * s
    return s, v, a, _reflection_logs(a, 1 - a, 1j * v)


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
def test_reflection_logs_equal_the_four_functions_exactly(re_s, im_s, d, m):
    _, v, a, (s_minus, s_plus, l_minus, l_plus) = _pair_logs(re_s, im_s, d, m)
    iv = 1j * v
    assert s_minus == _log_sin_pi(a - iv)
    assert s_plus == _log_sin_pi(a + iv)
    assert l_minus == _log_gamma_right((1 - a) - iv)
    assert l_plus == _log_gamma_right((1 - a) + iv)
    # the odd series' reflected pair: Re(s/2) < 1/2, so log_gamma reflects
    # both and builds 1 - (s/2 +- i v), the kernel's (1 - s/2) -+ i v
    pi = complexfn._LOG_PI_C
    odd_exponent = (pi - s_plus - l_minus) + (pi - s_minus - l_plus)
    assert odd_exponent == log_gamma(a + iv) + log_gamma(a - iv)


@given(
    re_s=st.floats(min_value=-8.0, max_value=0.5, exclude_max=True),
    im_s=st.floats(min_value=-80.0, max_value=80.0),
    d=st.sampled_from(sorted(RATIO_PAIR_FIELDS)),
    m=st.integers(min_value=1, max_value=200),
)
@example(re_s=-3.3, im_s=17.0, d=13, m=41)  # shared Lanczos values
@hyp_settings(max_examples=400, deadline=None)
def test_reflection_logs_pair_equals_the_two_ratio_sum_exactly(re_s, im_s, d, m):
    """The even pair as _ratio_pair_core combines the kernel's logs."""
    s, v, _, (s_minus, s_plus, l_minus, l_plus) = _pair_logs(re_s, im_s, d, m)
    pi = complexfn._LOG_PI_C
    pair = cmath.exp((pi - s_minus - l_plus) - l_minus) + cmath.exp(
        (pi - s_plus - l_minus) - l_plus
    )
    assert pair == _gamma_ratio(s, v) + _gamma_ratio(s, -v)


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
    (13, "even", complex(0.3, 2.0), (-0.10776260209644706-0.6605860001960463j), 109),
    (13, "even", complex(-0.1, 5.5), (0.14974411161188944-1.548768758725048j), 245),
    (13, "even", complex(0.45, -12.25), (0.4141357701775332+0.30736084319504053j), 1009),
    (13, "even", complex(-1.5, 0.5), (-0.14431366558490227-0.02209891861203902j), 29),
    (13, "even", complex(-3.7, 11.0), (-0.17007778340284102-0.1126307172016203j), 109),
    (13, "even", complex(-6.2, -4.3), (-0.007526025088323379-0.005655825605742928j), 33),
    (13, "odd", complex(0.3, 2.0), (0.7489961554911357+0.38827349199206973j), 17),
    (13, "odd", complex(-2.5, 7.0), (0.03811172025876826-0.1188043816173347j), 19),
    (13, "odd", complex(1.5, -15.0), (0.9686751243662575+0.0014137935910211036j), 27),
    # norm +1, recorded before the even form lost its overlap bands
    (3, "even", complex(0.3, 2.0), (0.6000505445933498-0.06933418371242145j), 61),
    (3, "even", complex(-0.1, 5.5), (0.05369817964533119-0.602567377075327j), 137),
    (3, "even", complex(-1.5, 0.5), (-0.2542844224569773+0.02552933020653344j), 17),
    (3, "even", complex(-3.7, 11.0), (-0.1264954920258513+0.0875937487305029j), 63),
]


@pytest.mark.parametrize("d, form, s, value, terms", FROZEN_POISSON)
def test_poisson_values_repeat_bit_for_bit(d, form, s, value, terms):
    field = SEAM_FIELDS[d]
    if form == "even":  # strip region for Re s > -0.25, left region below
        ev = zeta_even_poisson(field, s, tol=1e-12)
    else:
        ev = zeta_odd_poisson(field, s, tol=1e-12)
    assert (ev.value, ev.terms_used) == (value, terms)


@pytest.mark.parametrize("parity, s, pairs, reflected", [
    ("even", complex(-3.7, 11.0), 40, True),  # left region
    ("even", complex(0.2, 15.0), 418, True),  # strip region
    ("odd", complex(-3.7, 11.0), 12, True),
    ("odd", complex(0.2, 15.0), 15, True),
    ("odd", complex(1.5, -7.0), 12, False),  # Re(s/2) >= 1/2: no reflection
])
def test_pair_loops_make_one_kernel_call_per_pair_and_no_log_gamma_call(
    monkeypatch, parity, s, pairs, reflected
):
    """Outside the pair loops fibzeta.poisson calls log_gamma for Gamma(1 - s)
    and the m = 0 ratio (even), or for the m = 0 term (odd).  Each pair is
    one _reflection_logs call, or two Lanczos sums where s/2 does not
    reflect."""
    seen = {"log_gamma": 0, "kernel": 0, "lanczos": 0}

    def counting(name, fn):
        def wrapper(*args):
            seen[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr("fibzeta.poisson.log_gamma", counting("log_gamma", log_gamma))
    monkeypatch.setattr("fibzeta.poisson._reflection_logs", counting("kernel", _reflection_logs))
    monkeypatch.setattr("fibzeta.poisson._log_gamma_right", counting("lanczos", _log_gamma_right))
    evaluator = zeta_even_poisson if parity == "even" else zeta_odd_poisson
    ev = evaluator(RATIO_PAIR_FIELDS[29], s, tol=1e-10)
    assert ev.terms_used == 2 * pairs + 1
    assert seen == {
        "log_gamma": 3 if parity == "even" else 1,
        "kernel": pairs if reflected else 0,
        "lanczos": 0 if reflected else 2 * pairs,
    }


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
