"""fibzeta.evaluate, the one (norm, method, parity) dispatch point.

The frozen outcomes were recorded from the command-line dispatch that
preceded it (tol 1e-12, default settings): the record
(value, method, terms_used, tail bound, rigorous, pole distance) of each
evaluation, or the name of the error it raised.  They must repeat exactly.
The departures:
- the shifted-convolution route refuses a result whose tail bound exceeds
  tol, so its three D=5 strip records (tail bound 0.126 and 0.252 at tol
  1e-12) became TooSlowConvergenceError;
- D=3 (norm +1) combined is the even function of the half unit eps^(1/2) on
  every route: the poisson records are values instead of NormPlusOneError,
  the shifted-convolution records are the refusals of its region and tol,
  and the binomial records are those of the even series;
- the binomial tail bound takes its per-k decay as eps^(-2), how the norm +1
  even summand falls (it took eta^(-2) = eps^(-1) before): the D=3 strip
  record sums 11 terms instead of 12 and its value moves by 4.2e-13, within
  the summed tail bounds, and the D=3 S_LEFT record keeps its value with a
  tail bound of 2.4e-14 instead of 1.1e-13;
- a norm -1 combined value reports its distance to the combined lattice,
  where the split poles with k + m odd cancel, on every route: the D=5
  S_LEFT poisson record moved from 0.7071 to 1.5811, the binomial record's.
- log Gamma takes Stirling's series from |z| = 10 on, and far Poisson pairs
  a closed form without sines: the seven Poisson even and combined records
  moved by rounding alone, with the same terms, values by at most 2e-14
  relative (two records only in their tail bound).
- the binomial k-sum steps u = eta^(-(s+2k)) by one multiplication instead
  of one exp a term: nine binomial records moved by rounding alone, with
  the same terms, values by at most 5e-16 relative (two records only in
  their tail bound).
- log Gamma is Stirling's series alone, taken at z + n for |z| < 10, and
  zeta Euler-Maclaurin alone: the eight Poisson records moved by rounding
  alone, with the same terms and tail bounds, values by at most 2e-14
  relative.
- the even gamma-ratio sum subtracts orders through z^-12 from
  m0 = ceil((|s| + 4) / step) + 1 on: the seven Poisson even and combined
  value records take 4 to 14 fewer terms and moved by at most 6.1e-13
  relative, none further from the oracle value than before but by rounding.
- zeta and the even restored orders share one Euler-Maclaurin tail, whose
  corrections stop at 2^-53 of its leading term: the three S_STRIP Poisson
  even and combined records and the D=3 S_POLE one, whose strip form sums
  zeta(s), moved by rounding alone, with the same terms and tail bounds,
  values by at most 5.3e-16 relative.
- the strip form gave way to the one gamma-ratio pair sum left of
  Re s = 1/2: the same four records moved by about their own error, with
  the same terms and tail bounds; against the mpmath binomial series their
  errors went from 1.39e-14, 1.12e-14, 5.26e-15 and 1.51e-13 relative to
  1.40e-14, 1.13e-14, 5.36e-15 and 1.51e-13.
- the binomial series sums F(n)^(-s) directly below an index n0 chosen from
  |s| and expands only the tail: the ten binomial value records take 7 to
  11 terms instead of 10 to 35 and moved by at most 7.7e-13 relative, each
  within its tail bound of the mpmath binomial series (their worst error
  went from 7.4e-13 to 3.9e-13 relative).
The S_POLE rows pin the pole policy next to the D=5 pole k=0, m=1, which
cancels in the combined function; a PoleProximityError row names the pole
(k, m) it reports.
"""

import cmath
import inspect
import math
import random

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import fibzeta
from fibzeta import make_field
from fibzeta.dispatch import MAX_ABS_S
from fibzeta.suites import sample_points

S_STRIP = complex(0.3, 2.0)  # inside the old strip form's region; every route converges
S_LEFT = complex(-1.5, 0.5)  # Poisson even in the left region; direct and shifted refuse
# inside the default guard of the D=5 pole k=0, m=1, which cancels in the combined function
S_POLE = complex(-4e-4, math.pi / make_field(5).log_eps + 3e-4)

FROZEN = [
    (3, S_STRIP, 'direct', 'odd', 'NormPlusOneError'),
    (3, S_STRIP, 'direct', 'even', 'NormPlusOneError'),
    (3, S_STRIP, 'direct', 'combined', ((0.6000505445941159-0.06933418371245682j), 'direct', 84, 1.1574247392151013e-14, True, 2.0223748416156684)),
    (3, S_STRIP, 'binomial', 'odd', 'NormPlusOneError'),
    (3, S_STRIP, 'binomial', 'even', 'NormPlusOneError'),
    (3, S_STRIP, 'binomial', 'combined', ((0.6000505445941187-0.06933418371248498j), 'binomial', 7, 3.433793494661793e-14, True, 2.0223748416156684)),
    (3, S_STRIP, 'poisson', 'odd', 'NormPlusOneError'),
    (3, S_STRIP, 'poisson', 'even', 'NormPlusOneError'),
    (3, S_STRIP, 'poisson', 'combined', ((0.600050544594124-0.06933418371246042j), 'poisson', 9, 1.09490914136842e-13, False, 2.0223748416156684)),
    (3, S_STRIP, 'shifted_convolution', 'odd', 'NormPlusOneError'),
    (3, S_STRIP, 'shifted_convolution', 'even', 'NormPlusOneError'),
    (3, S_STRIP, 'shifted_convolution', 'combined', 'TooSlowConvergenceError'),
    (3, S_LEFT, 'direct', 'odd', 'NormPlusOneError'),
    (3, S_LEFT, 'direct', 'even', 'NormPlusOneError'),
    (3, S_LEFT, 'direct', 'combined', 'OutOfRegionError'),
    (3, S_LEFT, 'binomial', 'odd', 'NormPlusOneError'),
    (3, S_LEFT, 'binomial', 'even', 'NormPlusOneError'),
    (3, S_LEFT, 'binomial', 'combined', ((-0.25428442245668803+0.025529330206684797j), 'binomial', 7, 4.60919197184792e-15, True, 0.7071067811865476)),
    (3, S_LEFT, 'poisson', 'odd', 'NormPlusOneError'),
    (3, S_LEFT, 'poisson', 'even', 'NormPlusOneError'),
    (3, S_LEFT, 'poisson', 'combined', ((-0.2542844224566854+0.02552933020668366j), 'poisson', 9, 6.3941941613196316e-18, False, 0.7071067811865476)),
    (3, S_LEFT, 'shifted_convolution', 'odd', 'NormPlusOneError'),
    (3, S_LEFT, 'shifted_convolution', 'even', 'NormPlusOneError'),
    (3, S_LEFT, 'shifted_convolution', 'combined', 'OutOfRegionError'),
    (5, S_STRIP, 'direct', 'odd', ((0.7910265627061284-0.5578800190552128j), 'direct', 112, 3.970827960058948e-14, True, 2.0223748416156684)),
    (5, S_STRIP, 'direct', 'even', ((0.5610063221455387-0.21275098527985634j), 'direct', 112, 3.437041525191709e-14, True, 2.0223748416156684)),
    (5, S_STRIP, 'direct', 'combined', ((1.352032884851634-0.7706310043350508j), 'direct', 216, 2.3510597083952683e-13, True, 2.0223748416156684)),
    (5, S_STRIP, 'binomial', 'odd', ((0.791026562706015-0.5578800190555778j), 'binomial', 8, 5.343624860219699e-13, True, 2.0223748416156684)),
    (5, S_STRIP, 'binomial', 'even', ((0.5610063221455887-0.21275098527987715j), 'binomial', 9, 7.867643649871694e-14, True, 2.0223748416156684)),
    (5, S_STRIP, 'binomial', 'combined', ((1.3520328848517154-0.7706310043350965j), 'binomial', 11, 1.0727543091981531e-13, True, 2.0223748416156684)),
    (5, S_STRIP, 'poisson', 'odd', ((0.7910265627061279-0.5578800190552203j), 'poisson', 7, 1.3699371436426856e-17, False, 2.0223748416156684)),
    (5, S_STRIP, 'poisson', 'even', ((0.5610063221455395-0.21275098527986172j), 'poisson', 7, 7.589284713839216e-14, False, 2.0223748416156684)),
    (5, S_STRIP, 'poisson', 'combined', ((1.3520328848516674-0.770631004335082j), 'poisson', 14, 7.590654650982858e-14, False, 2.0223748416156684)),
    (5, S_STRIP, 'shifted_convolution', 'odd', 'TooSlowConvergenceError'),
    (5, S_STRIP, 'shifted_convolution', 'even', 'TooSlowConvergenceError'),
    (5, S_STRIP, 'shifted_convolution', 'combined', 'TooSlowConvergenceError'),
    (5, S_LEFT, 'direct', 'odd', 'OutOfRegionError'),
    (5, S_LEFT, 'direct', 'even', 'OutOfRegionError'),
    (5, S_LEFT, 'direct', 'combined', 'OutOfRegionError'),
    (5, S_LEFT, 'binomial', 'odd', ((0.4170397027566223-0.6330871640700703j), 'binomial', 10, 1.1886972340448545e-13, True, 0.7071067811865476)),
    (5, S_LEFT, 'binomial', 'even', ((-0.6266072680551664+0.2407601473581702j), 'binomial', 8, 2.0416480790988828e-13, True, 0.7071067811865476)),
    (5, S_LEFT, 'binomial', 'combined', ((-0.20956756529843545-0.392327016711912j), 'binomial', 11, 1.6192749515859224e-13, True, 1.5811388300841898)),
    (5, S_LEFT, 'poisson', 'odd', ((0.41703970275655916-0.6330871640700879j), 'poisson', 7, 4.956395888907814e-21, False, 0.7071067811865476)),
    (5, S_LEFT, 'poisson', 'even', ((-0.6266072680550561+0.24076014735815732j), 'poisson', 7, 1.49528090593399e-17, False, 0.7071067811865476)),
    (5, S_LEFT, 'poisson', 'combined', ((-0.2095675652984969-0.3923270167119306j), 'poisson', 14, 1.495776545522881e-17, False, 1.5811388300841898)),
    (5, S_LEFT, 'shifted_convolution', 'odd', 'OutOfRegionError'),
    (5, S_LEFT, 'shifted_convolution', 'even', 'OutOfRegionError'),
    (5, S_LEFT, 'shifted_convolution', 'combined', 'OutOfRegionError'),
    (3, S_POLE, 'direct', 'odd', 'NormPlusOneError'),
    (3, S_POLE, 'direct', 'even', 'NormPlusOneError'),
    (3, S_POLE, 'direct', 'combined', 'OutOfRegionError'),
    (3, S_POLE, 'binomial', 'odd', 'NormPlusOneError'),
    (3, S_POLE, 'binomial', 'even', 'NormPlusOneError'),
    (3, S_POLE, 'binomial', 'combined', ((0.46506063172653733+0.009337953593538867j), 'binomial', 8, 3.48655416011008e-14, True, 1.7578184592230535)),
    (3, S_POLE, 'poisson', 'odd', 'NormPlusOneError'),
    (3, S_POLE, 'poisson', 'even', 'NormPlusOneError'),
    (3, S_POLE, 'poisson', 'combined', ((0.46506063172662143+0.00933795359352113j), 'poisson', 17, 9.47454496769792e-13, False, 1.7578184592230535)),
    (3, S_POLE, 'shifted_convolution', 'odd', 'NormPlusOneError'),
    (3, S_POLE, 'shifted_convolution', 'even', 'NormPlusOneError'),
    (3, S_POLE, 'shifted_convolution', 'combined', 'OutOfRegionError'),
    (5, S_POLE, 'direct', 'odd', 'OutOfRegionError'),
    (5, S_POLE, 'direct', 'even', 'OutOfRegionError'),
    (5, S_POLE, 'direct', 'combined', 'OutOfRegionError'),
    (5, S_POLE, 'binomial', 'odd', 'PoleProximityError k=0 m=1'),
    (5, S_POLE, 'binomial', 'even', 'PoleProximityError k=0 m=1'),
    (5, S_POLE, 'binomial', 'combined', ((2.260774997449279+0.6777560835136114j), 'binomial', 11, 1.2857151892435355e-12, True, 1.9996000225045008)),
    (5, S_POLE, 'poisson', 'odd', 'PoleProximityError k=0 m=1'),
    (5, S_POLE, 'poisson', 'even', 'PoleProximityError k=0 m=1'),
    (5, S_POLE, 'poisson', 'combined', 'PoleProximityError k=0 m=1'),
    (5, S_POLE, 'shifted_convolution', 'odd', 'OutOfRegionError'),
    (5, S_POLE, 'shifted_convolution', 'even', 'OutOfRegionError'),
    (5, S_POLE, 'shifted_convolution', 'combined', 'OutOfRegionError'),
]

METHODS = ("direct", "binomial", "poisson", "shifted_convolution")
PARITIES = ("odd", "even", "combined")


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("parity", PARITIES)
def test_evaluate_matches_frozen_dispatch(d, method, parity):
    field = make_field(d)
    cases = [(s, out) for dd, s, m, p, out in FROZEN if (dd, m, p) == (d, method, parity)]
    assert len(cases) == 3
    for s, expected in cases:
        if isinstance(expected, str):
            name, *pole = expected.split()
            with pytest.raises(getattr(fibzeta, name)) as exc:
                fibzeta.evaluate(field, s, parity, method, 1e-12)
            if pole:
                assert pole == [f"k={exc.value.k}", f"m={exc.value.m}"]
            continue
        ev = fibzeta.evaluate(field, s, parity, method, 1e-12)
        assert tuple(ev) == expected


def test_an_evaluation_is_one_flat_record():
    assert fibzeta.ZetaEvaluation._fields == (
        "value", "method", "terms_used", "tail_bound", "tail_rigorous", "nearest_pole_distance")
    assert not hasattr(fibzeta, "SeriesTail")
    ev = fibzeta.evaluate(make_field(5), S_STRIP, "odd", "poisson", 1e-12)
    assert type(ev) is fibzeta.ZetaEvaluation
    assert (type(ev.tail_bound), ev.tail_rigorous) == (float, False)


@pytest.mark.parametrize("d", [3, 6, 7, 11])
def test_norm_plus_one_combined_agrees_with_binomial_on_every_route(d):
    """Norm +1 combined is the even function of eps^(1/2) on every route;
    the shifted convolution may refuse tol 1e-12 near Re s = 1."""
    field = make_field(d)
    rng = random.Random(d)
    returned = 0
    for method, re_lo in (("poisson", -4.0), ("direct", 0.5), ("shifted_convolution", 1.0)):
        for s in sample_points(field, rng, 12, re_lo, 3.0, 8.0):
            ref = fibzeta.evaluate(field, s, "combined", "binomial", 1e-12).value
            try:
                ev = fibzeta.evaluate(field, s, "combined", method, 1e-12)
            except fibzeta.TooSlowConvergenceError:
                assert method == "shifted_convolution"
                continue
            assert abs(ev.value - ref) <= 1e-8 * abs(ref), (method, s)
            returned += method == "shifted_convolution"
    assert returned > 0


@pytest.mark.parametrize("d,first", [(5, complex(1.2, 6.5)), (13, complex(0.3, 2.0))])
def test_combined_routes_report_the_combined_pole_distance(d, first):
    """The split poles with k + m odd cancel in Z_odd + Z_even, so every
    route reports the distance to the combined lattice for a norm -1 field."""
    field = make_field(d)
    points = (first, complex(2.5, 30.0), complex(-1.5, 0.5))
    for s in points:
        dist = fibzeta.nearest_lattice_pole(field, s, "combined")[3]
        for method in METHODS:
            try:
                ev = fibzeta.evaluate(field, s, "combined", method, 1e-8)
            except (fibzeta.OutOfRegionError, fibzeta.TooSlowConvergenceError):
                continue
            assert ev.nearest_pole_distance == dist, (method, s)
    # the nearest split pole is a cancelled one at every point
    assert all(fibzeta.nearest_lattice_pole(field, s)[3]
               < fibzeta.nearest_lattice_pole(field, s, "combined")[3] for s in points)


def test_evaluate_rejects_unknown_parity():
    with pytest.raises(fibzeta.DomainError):
        fibzeta.evaluate(make_field(5), S_STRIP, "both", "binomial", 1e-12)


def test_shifted_convolution_returns_the_scan_only_within_tol():
    field = make_field(5)
    ev = fibzeta.evaluate(field, 2.0, "odd", "shifted_convolution", 1e-8)
    assert ev[:4] == fibzeta.crosscheck.shifted_convolution_odd(field, 2.0)[:4]
    assert ev.nearest_pole_distance == fibzeta.nearest_lattice_pole(field, 2.0)[3]
    assert ev.tail_bound <= 1e-8 * abs(ev.value)
    with pytest.raises(fibzeta.TooSlowConvergenceError):
        fibzeta.evaluate(field, 2.0, "odd", "shifted_convolution", 1e-12)


ROUTE_KERNELS = [
    "zeta_direct", "zeta_odd_binomial", "zeta_even_binomial", "zeta_combined_binomial",
    "zeta_norm_plus_one", "zeta_odd_poisson", "zeta_even_poisson", "zeta_even_poisson_strip",
    "shifted_convolution_odd", "shifted_convolution_even",
]


def test_settings_hold_only_the_pole_guard():
    assert fibzeta.Settings._fields == ("pole_guard_radius",)
    for module in (fibzeta.continuation, fibzeta.poisson, fibzeta.crosscheck, fibzeta.dispatch):
        for name, fun in inspect.getmembers(module, inspect.isfunction):
            assert "pole_guard" not in inspect.signature(fun).parameters, name
    # only evaluate reads settings: the routes below it are plain series
    for module in (fibzeta.continuation, fibzeta.poisson, fibzeta.crosscheck):
        for name, fun in inspect.getmembers(module, inspect.isfunction):
            assert "settings" not in inspect.signature(fun).parameters, name


def test_the_package_exports_evaluate_and_no_unguarded_route():
    assert "evaluate" in fibzeta.__all__
    assert not set(ROUTE_KERNELS) & set(fibzeta.__all__)


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_settings_reject_a_pole_guard_that_is_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="pole_guard_radius"):
        fibzeta.Settings(pole_guard_radius=radius)
    with pytest.raises(ValueError, match="pole_guard_radius"):
        fibzeta.default_settings()._replace(pole_guard_radius=radius)
    with pytest.raises(ValueError, match="pole_guard_radius"):
        fibzeta.Settings._make([radius])


@pytest.mark.parametrize("s", [complex(math.inf, 0.0), complex(0.0, math.inf),
                               complex(math.nan, 1.0), -math.inf])
def test_evaluate_rejects_a_non_finite_s(s):
    field = make_field(5)
    for method in fibzeta.continuation.METHODS:
        with pytest.raises(fibzeta.DomainError):
            fibzeta.evaluate(field, s, "combined", method, 1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 1.0, 0.0100001, math.inf])
def test_evaluate_rejects_a_tol_outside_its_range(tol):
    field = make_field(5)
    for method in fibzeta.continuation.METHODS:
        for parity in fibzeta.continuation.PARITIES:
            with pytest.raises(fibzeta.DomainError, match=r"tol must be in \(0, 1e-2\]"):
                fibzeta.evaluate(field, S_STRIP, parity, method, tol)


def test_evaluate_accepts_the_top_of_the_tol_range():
    ev = fibzeta.evaluate(make_field(5), S_STRIP, "odd", "binomial", 1e-2)
    assert math.isfinite(ev.value.real)


def test_evaluate_takes_s_up_to_max_abs_s_and_refuses_it_above():
    field = make_field(5)
    # F(1) = F(2) = 1 and every later term underflows
    assert fibzeta.evaluate(field, MAX_ABS_S, "combined", "direct", 1e-12).value == 2.0
    for s in (-MAX_ABS_S, complex(0.0, MAX_ABS_S), cmath.rect(MAX_ABS_S, 2.0)):
        for method in fibzeta.continuation.METHODS:
            try:
                ev = fibzeta.evaluate(field, s, "combined", method, 1e-12)
            except fibzeta.NumericalError:
                continue
            assert cmath.isfinite(ev.value) and math.isfinite(ev.tail_bound)
    for s in (MAX_ABS_S * (1.0 + 2.0**-52), complex(-1e300, 1e300), 1e306j,
              complex(1e308, 1e308)):
        for method in fibzeta.continuation.METHODS:
            with pytest.raises(fibzeta.DomainError, match=r"\|s\| must be at most 1e\+300"):
                fibzeta.evaluate(field, s, "combined", method, 1e-12)


PROPERTY_FIELDS = {d: make_field(d) for d in (2, 3, 5, 13, 29, 61, 94)}


@hyp_settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from(sorted(PROPERTY_FIELDS)),
    log_abs_s=st.floats(0.0, 300.0),
    angle=st.floats(-math.pi, math.pi),
    method=st.sampled_from(fibzeta.continuation.METHODS),
    parity=st.sampled_from(fibzeta.continuation.PARITIES),
    log_tol=st.floats(-15.0, -2.0),
)
def test_evaluate_returns_finite_numbers_or_raises_a_fibzeta_error(
    d, log_abs_s, angle, method, parity, log_tol
):
    s = cmath.rect(10.0**log_abs_s, angle)
    try:
        ev = fibzeta.evaluate(PROPERTY_FIELDS[d], s, parity, method, 10.0**log_tol)
    except fibzeta.FibZetaError:
        return
    assert cmath.isfinite(ev.value) and math.isfinite(ev.tail_bound)


# Below the resolution of a double the guard lets through points that are
# lattice poles to working precision; no route may then divide by zero or
# return a value that has lost the digits tol asks for.
TINY_GUARD = fibzeta.Settings(pole_guard_radius=1e-30)
NEAR_ZERO = [1e-20, -1e-20, complex(1e-20, 1e-20), 1e-17, 1e-16, 1e-12, 1e-10, 1e-8]
ROUTE_POINTS = [(method, complex(s)) for method in fibzeta.continuation.METHODS
                for s in NEAR_ZERO]


def _near_zero_outcome(method, s):
    """The error each route raises at s next to the pole 0, or None for a value."""
    if method in ("direct", "shifted_convolution") and s.real <= 0:
        return fibzeta.OutOfRegionError
    if method in ("direct", "shifted_convolution"):
        # the tail falls like eps^(-Re s) per term: tol needs far too many terms
        return fibzeta.TooSlowConvergenceError
    if method == "binomial":
        # rounding u leaves 1 - u^2 an error near 2^-53, more than tol of
        # its size 2 |s| log eps this close to the pole
        return fibzeta.PoleProximityError
    return None


@pytest.mark.parametrize("parity", ["odd", "even", "combined"])
@pytest.mark.parametrize("method,s", ROUTE_POINTS)
def test_routes_raise_a_numerical_error_instead_of_dividing_by_zero(method, s, parity):
    field = make_field(5)
    expected = _near_zero_outcome(method, s)
    if expected is not None:
        with pytest.raises(expected) as exc:
            fibzeta.evaluate(field, s, parity, method, 1e-12, TINY_GUARD)
        if expected is fibzeta.PoleProximityError:
            assert (exc.value.k, exc.value.m) == (0, 0) and exc.value.distance == abs(s)
        return
    ev = fibzeta.evaluate(field, s, parity, method, 1e-12, TINY_GUARD)
    assert cmath.isfinite(ev.value)
    if method == "poisson":
        # Z_odd and Z_even both behave like 1/(2 s log eps) + O(1) at the pole
        # s = 0; at D = 5 the O(1) constants sum to less than 2
        lead = (1 if parity != "combined" else 2) / (2.0 * s * field.log_eps)
        assert abs(ev.value - lead) < 1e-12 * abs(lead) + 2.0
