"""fibzeta.evaluate, the one (norm, method, parity) dispatch point.

The frozen outcomes were recorded from the command-line dispatch that
preceded it (tol 1e-12, default settings): the record
(value, method, terms_used, tail bound, rigorous, pole distance) of each
evaluation, or the name of the error it raised.  They must repeat exactly.
The one departure: the shifted-convolution route now refuses a result whose
tail bound exceeds tol, so its three D=5 strip records (tail bound 0.126 and
0.252 at tol 1e-12) became TooSlowConvergenceError.
"""

import dataclasses
import inspect
import math

import pytest

import fibzeta
from fibzeta import make_field

S_STRIP = complex(0.3, 2.0)  # Poisson even in the strip region; every route converges
S_LEFT = complex(-1.5, 0.5)  # Poisson even in the left region; direct and shifted refuse

FROZEN = [
    (3, S_STRIP, 'direct', 'odd', 'NormPlusOneError'),
    (3, S_STRIP, 'direct', 'even', 'NormPlusOneError'),
    (3, S_STRIP, 'direct', 'combined', ((0.6000505445941159-0.06933418371245682j), 'direct', 84, 1.1574247392151013e-14, True, 2.0223748416156684)),
    (3, S_STRIP, 'binomial', 'odd', 'NormPlusOneError'),
    (3, S_STRIP, 'binomial', 'even', 'NormPlusOneError'),
    (3, S_STRIP, 'binomial', 'combined', ((0.6000505445937836-0.0693341837121611j), 'binomial', 11, 5.172364567219617e-13, True, 2.0223748416156684)),
    (3, S_STRIP, 'poisson', 'odd', 'NormPlusOneError'),
    (3, S_STRIP, 'poisson', 'even', 'NormPlusOneError'),
    (3, S_STRIP, 'poisson', 'combined', 'NormPlusOneError'),
    (3, S_STRIP, 'shifted_convolution', 'odd', 'NormPlusOneError'),
    (3, S_STRIP, 'shifted_convolution', 'even', 'NormPlusOneError'),
    (3, S_STRIP, 'shifted_convolution', 'combined', 'NormPlusOneError'),
    (3, S_LEFT, 'direct', 'odd', 'NormPlusOneError'),
    (3, S_LEFT, 'direct', 'even', 'NormPlusOneError'),
    (3, S_LEFT, 'direct', 'combined', 'OutOfRegionError'),
    (3, S_LEFT, 'binomial', 'odd', 'NormPlusOneError'),
    (3, S_LEFT, 'binomial', 'even', 'NormPlusOneError'),
    (3, S_LEFT, 'binomial', 'combined', ((-0.254284422456699+0.025529330206673986j), 'binomial', 10, 2.3589045179296622e-14, True, 0.7071067811865476)),
    (3, S_LEFT, 'poisson', 'odd', 'NormPlusOneError'),
    (3, S_LEFT, 'poisson', 'even', 'NormPlusOneError'),
    (3, S_LEFT, 'poisson', 'combined', 'NormPlusOneError'),
    (3, S_LEFT, 'shifted_convolution', 'odd', 'NormPlusOneError'),
    (3, S_LEFT, 'shifted_convolution', 'even', 'NormPlusOneError'),
    (3, S_LEFT, 'shifted_convolution', 'combined', 'NormPlusOneError'),
    (5, S_STRIP, 'direct', 'odd', ((0.7910265627061284-0.5578800190552128j), 'direct', 112, 3.970827960058948e-14, True, 2.0223748416156684)),
    (5, S_STRIP, 'direct', 'even', ((0.5610063221455387-0.21275098527985634j), 'direct', 112, 3.437041525191709e-14, True, 2.0223748416156684)),
    (5, S_STRIP, 'direct', 'combined', ((1.352032884851634-0.7706310043350508j), 'direct', 216, 2.3510597083952683e-13, True, 2.0223748416156684)),
    (5, S_STRIP, 'binomial', 'odd', ((0.7910265627062247-0.5578800190554066j), 'binomial', 30, 5.069745761659901e-13, True, 2.0223748416156684)),
    (5, S_STRIP, 'binomial', 'even', ((0.5610063221454719-0.21275098527985037j), 'binomial', 16, 2.603127350541462e-13, True, 2.0223748416156684)),
    (5, S_STRIP, 'binomial', 'combined', ((1.352032884851432-0.7706310043345602j), 'binomial', 29, 1.3592732704666637e-12, True, 2.0223748416156684)),
    (5, S_STRIP, 'poisson', 'odd', ((0.7910265627061253-0.5578800190552188j), 'poisson', 7, 1.3699371436426883e-17, False, 2.0223748416156684)),
    (5, S_STRIP, 'poisson', 'even', ((0.5610063221450912-0.21275098527916342j), 'poisson', 43, 1.2109187771147048e-12, False, 2.0223748416156684)),
    (5, S_STRIP, 'poisson', 'combined', ((1.3520328848512164-0.7706310043343823j), 'poisson', 50, 1.2109324764861412e-12, False, 2.0223748416156684)),
    (5, S_STRIP, 'shifted_convolution', 'odd', 'TooSlowConvergenceError'),
    (5, S_STRIP, 'shifted_convolution', 'even', 'TooSlowConvergenceError'),
    (5, S_STRIP, 'shifted_convolution', 'combined', 'TooSlowConvergenceError'),
    (5, S_LEFT, 'direct', 'odd', 'OutOfRegionError'),
    (5, S_LEFT, 'direct', 'even', 'OutOfRegionError'),
    (5, S_LEFT, 'direct', 'combined', 'OutOfRegionError'),
    (5, S_LEFT, 'binomial', 'odd', ((0.4170397027565219-0.6330871640702241j), 'binomial', 22, 3.5691425770712654e-13, True, 0.7071067811865476)),
    (5, S_LEFT, 'binomial', 'even', ((-0.6266072680550838+0.24076014735813242j), 'binomial', 13, 1.826942956978293e-13, True, 0.7071067811865476)),
    (5, S_LEFT, 'binomial', 'combined', ((-0.20956756529853546-0.39232701671206605j), 'binomial', 22, 3.5691425651624005e-13, True, 1.5811388300841898)),
    (5, S_LEFT, 'poisson', 'odd', ((0.4170397027565595-0.6330871640700885j), 'poisson', 7, 4.9563958889078056e-21, False, 0.7071067811865476)),
    (5, S_LEFT, 'poisson', 'even', ((-0.6266072680554785+0.24076014735803491j), 'poisson', 13, 2.6083496295609156e-12, False, 0.7071067811865476)),
    (5, S_LEFT, 'poisson', 'combined', ((-0.209567565298919-0.39232701671205356j), 'poisson', 20, 2.6083496345173116e-12, False, 0.7071067811865476)),
    (5, S_LEFT, 'shifted_convolution', 'odd', 'OutOfRegionError'),
    (5, S_LEFT, 'shifted_convolution', 'even', 'OutOfRegionError'),
    (5, S_LEFT, 'shifted_convolution', 'combined', 'OutOfRegionError'),
]

METHODS = ("direct", "binomial", "poisson", "shifted_convolution")
PARITIES = ("odd", "even", "combined")


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("parity", PARITIES)
def test_evaluate_matches_frozen_dispatch(d, method, parity):
    field = make_field(d)
    cases = [(s, out) for dd, s, m, p, out in FROZEN if (dd, m, p) == (d, method, parity)]
    assert len(cases) == 2
    for s, expected in cases:
        if isinstance(expected, str):
            with pytest.raises(getattr(fibzeta, expected)):
                fibzeta.evaluate(field, s, parity, method, 1e-12)
            continue
        ev = fibzeta.evaluate(field, s, parity, method, 1e-12)
        got = (ev.value, ev.method, ev.terms_used, ev.tail.bound, ev.tail.rigorous,
               ev.nearest_pole_distance)
        assert got == expected


def test_evaluate_rejects_unknown_parity():
    with pytest.raises(fibzeta.DomainError):
        fibzeta.evaluate(make_field(5), S_STRIP, "both", "binomial", 1e-12)


def test_shifted_convolution_returns_the_scan_only_within_tol():
    field = make_field(5)
    ev = fibzeta.evaluate(field, 2.0, "odd", "shifted_convolution", 1e-8)
    assert ev == fibzeta.shifted_convolution_odd(field, 2.0)
    assert ev.tail.bound <= 1e-8 * abs(ev.value)
    with pytest.raises(fibzeta.TooSlowConvergenceError):
        fibzeta.evaluate(field, 2.0, "odd", "shifted_convolution", 1e-12)


def test_settings_hold_only_the_pole_guard():
    assert [f.name for f in dataclasses.fields(fibzeta.Settings)] == ["pole_guard_radius"]
    for module in (fibzeta.continuation, fibzeta.poisson, fibzeta.crosscheck, fibzeta.dispatch):
        for name, fun in inspect.getmembers(module, inspect.isfunction):
            assert "pole_guard" not in inspect.signature(fun).parameters, name


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_settings_reject_a_pole_guard_that_is_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="pole_guard_radius"):
        fibzeta.Settings(pole_guard_radius=radius)
    with pytest.raises(ValueError, match="pole_guard_radius"):
        dataclasses.replace(fibzeta.default_settings(), pole_guard_radius=radius)


@pytest.mark.parametrize("s", [complex(math.inf, 0.0), complex(0.0, math.inf),
                               complex(math.nan, 1.0), -math.inf])
def test_evaluate_rejects_a_non_finite_s(s):
    field = make_field(5)
    for method in fibzeta.continuation.METHODS:
        with pytest.raises(fibzeta.DomainError):
            fibzeta.evaluate(field, s, "combined", method, 1e-12)
