import cmath
import math
import random
import time
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from fibzeta import (
    FactorOverflowError,
    NormPlusOneError,
    OutOfRegionError,
    PoleProximityError,
    TooSlowConvergenceError,
    evaluate,
    fib,
    make_field,
    nearest_lattice_pole,
    sequence_terms,
)
from fibzeta import continuation
from fibzeta.continuation import (
    _BINOMIAL_CHECK_STRIDE,
    _MAX_BINOMIAL_TERMS,
    _binomial_sum,
    _split_index,
    zeta_combined_binomial,
    zeta_direct,
    zeta_even_binomial,
    zeta_norm_plus_one,
    zeta_odd_binomial,
)
from fibzeta.quadfield import iter_sequence, log_fib_upto
from mp_reference import mp_binomial_reference

F5 = make_field(5)
F3 = make_field(3)
F10 = make_field(10)
F13 = make_field(13)


def direct_sum(field, s, parity, terms):
    """Raw reference summation straight off the integer sequence."""
    vals = [t.fib for t in sequence_terms(field, 2 * terms + 2)]
    if parity == "odd":
        indices = range(1, 2 * terms, 2)
    elif parity == "even":
        indices = range(2, 2 * terms + 1, 2)
    else:
        indices = range(1, terms + 1)
    return sum(cmath.exp(-complex(s) * math.log(vals[i])) for i in indices)


# ---------------------------------------------------------------------- direct

def test_direct_odd_d5_at_two():
    ev = zeta_direct(F5, 2.0, "odd", 40)
    # 1 + 1/4 + 1/25 + 1/169 + ... (squares of 1, 2, 5, 13, ...)
    assert abs(ev.value - 1.2969300248114331) < 1e-14
    assert ev.tail_bound < 1e-30
    assert ev.terms_used == 40
    assert ev.tail_rigorous


def test_direct_even_d10_at_one():
    ev = zeta_direct(F10, 1.0, "even", 30)
    assert abs(ev.value - (1.0 / 6 + 1.0 / 228 + 1.0 / fib(F10, 6))) < 1e-5
    assert abs(ev.value - 0.17117125554252853) < 1e-13


def test_direct_out_of_region():
    with pytest.raises(OutOfRegionError):
        zeta_direct(F5, -1.0, "odd", 10)
    with pytest.raises(OutOfRegionError):
        zeta_direct(F5, complex(0.0, 3.0), "even", 10)


# -------------------------------------------------------------------- binomial

def test_odd_binomial_matches_direct_d5():
    ev = zeta_odd_binomial(F5, 2.0, tol=1e-13)
    ref = direct_sum(F5, 2.0, "odd", 50)
    assert abs(ev.value - ref) < 1e-12


def test_odd_binomial_trivial_zero_at_minus_one():
    ev = zeta_odd_binomial(F5, -1.0)
    assert abs(ev.value) < 1e-12


def test_odd_binomial_matches_direct_d10_at_one():
    ev = zeta_odd_binomial(F10, 1.0, tol=1e-13)
    ref = direct_sum(F10, 1.0, "odd", 30)
    assert abs(ev.value - ref) < 1e-10


def test_even_binomial_matches_direct_d5():
    ev = zeta_even_binomial(F5, 2.0, tol=1e-13)
    ref = direct_sum(F5, 2.0, "even", 55)
    assert abs(ev.value - ref) < 1e-10
    assert abs(ev.value - 1.1293907263558080) < 1e-12


def test_even_binomial_exact_at_minus_one():
    ev = zeta_even_binomial(F5, -1.0)
    assert abs(ev.value - (-1.0)) < 1e-12


def test_combined_binomial_reciprocal_fibonacci_constant():
    ev = zeta_combined_binomial(F5, 1.0, tol=1e-14)
    ref = direct_sum(F5, 1.0, "combined", 100)
    assert abs(ev.value - ref) < 1e-9
    assert abs(ev.value - 3.3598856662431776) < 1e-9


def test_combined_equals_odd_plus_even():
    rng = random.Random(424242)
    checked = 0
    while checked < 100:
        s = complex(rng.uniform(-6, 4), rng.uniform(-10, 10))
        if nearest_lattice_pole(F5, s)[3] <= 0.05:
            continue
        odd = zeta_odd_binomial(F5, s, tol=1e-13)
        even = zeta_even_binomial(F5, s, tol=1e-13)
        comb = zeta_combined_binomial(F5, s, tol=1e-13)
        allowed = odd.tail_bound + even.tail_bound + comb.tail_bound + 1e-9
        assert abs(comb.value - (odd.value + even.value)) < allowed
        checked += 1


def test_golden_ratio_specialization_termwise():
    """At D=5 the combined series is the classical golden-ratio formula
    5^(s/2) sum_k C(-s,k) / (phi^(s+2k) + (-1)^(k+1)): evaluate it inline
    and compare term counts aside, values to near machine precision."""
    phi = (1 + math.sqrt(5)) / 2
    rng = random.Random(77)
    for _ in range(20):
        s = complex(rng.uniform(-3, 3), rng.uniform(-6, 6))
        if nearest_lattice_pole(F5, s, "combined")[3] <= 0.1:
            continue
        coeff = 1.0 + 0j
        acc = 0j
        for k in range(120):
            acc += coeff / (phi ** (s + 2 * k) + (-1) ** (k + 1))
            coeff = coeff * (-s - k) / (k + 1)
        inline = 5 ** (s / 2) * acc
        ev = zeta_combined_binomial(F5, s, tol=1e-14)
        assert abs(ev.value - inline) <= 1e-12 * max(abs(inline), 1.0)


def test_region_consistency_binomial_vs_direct():
    """Binomial evaluations track the direct series throughout Re s in [0.2, 4]."""
    from fibzeta.continuation import direct_terms_for

    rng = random.Random(55)
    for _ in range(25):
        s = complex(rng.uniform(0.2, 4.0), rng.uniform(-8.0, 8.0))
        for parity, fun in (("odd", zeta_odd_binomial), ("even", zeta_even_binomial)):
            b = fun(F5, s, tol=1e-13)
            d = zeta_direct(F5, s, parity, direct_terms_for(F5, s, 1e-13, parity))
            allowed = max(b.tail_bound + d.tail_bound, 1e-10)
            assert abs(b.value - d.value) <= allowed


def test_denominator_factorization_identity():
    """eps^(2s+4k) - 1 factors as (eps^(s+2k) - 1)(eps^(s+2k) + 1) at every
    term actually evaluated (checked in the overflow-free exponent range)."""
    log_eps = F5.log_eps
    rng = random.Random(3)
    for _ in range(25):
        s = complex(rng.uniform(-4, 4), rng.uniform(-8, 8))
        for k in range(0, 40):
            z = (s + 2 * k) * log_eps
            if abs(z.real) > 150:
                break
            lhs = cmath.exp(2 * z) - 1
            rhs = (cmath.exp(z) - 1) * (cmath.exp(z) + 1)
            if abs(lhs) > 1e-8:
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# ----------------------------------------------------------------- norm +1 path

def test_norm_plus_one_d3():
    ref2 = direct_sum(F3, 2.0, "combined", 40)
    ev2 = zeta_norm_plus_one(F3, 2.0, tol=1e-13)
    assert abs(ev2.value - ref2) < 1e-10
    assert zeta_combined_binomial(F3, 2.0, tol=1e-13) == ev2
    ref4 = direct_sum(F3, 4.0, "combined", 30)
    ev4 = zeta_norm_plus_one(F3, 4.0, tol=1e-13)
    assert abs(ev4.value - ref4) < 1e-10


def test_norm_plus_one_d7():
    f7 = make_field(7)
    assert f7.norm_eps == 1
    ev = zeta_norm_plus_one(f7, 2.0, tol=1e-13)
    ref = direct_sum(f7, 2.0, "combined", 30)
    assert abs(ev.value - ref) < 1e-10


def test_split_methods_reject_norm_plus_one_field():
    for parity in ("odd", "even"):
        with pytest.raises(NormPlusOneError):
            evaluate(F3, 2.0, parity, "binomial", 1e-12)


def test_direct_allows_norm_plus_one_combined():
    ev = zeta_direct(F3, 2.0, "combined", 30)
    assert abs(ev.value - direct_sum(F3, 2.0, "combined", 30)) < 1e-15


# ------------------------------------------------------------------ pole guard

def test_pole_proximity_raised_at_origin():
    with pytest.raises(PoleProximityError) as exc:
        evaluate(F5, complex(1e-5, 0.0), "odd", "binomial", 1e-12)
    assert exc.value.k == 0 and exc.value.m == 0


def test_pole_proximity_at_imaginary_lattice_point():
    s0 = complex(0.0, math.pi / F5.log_eps)
    with pytest.raises(PoleProximityError) as exc:
        evaluate(F5, s0 + 1e-6, "even", "binomial", 1e-12)
    assert (exc.value.k, exc.value.m) == (0, 1)


def test_combined_evaluates_at_cancelled_pole():
    # k=0, m=1 cancels in the combined function; the split ones blow up there
    s0 = complex(0.0, math.pi / F5.log_eps)
    ev = zeta_combined_binomial(F5, s0, tol=1e-12)
    assert abs(ev.value) < 10.0  # finite, ordinary value


def test_simple_pole_signature():
    """|Z(s0 + delta e^(i theta)) * delta| is nearly direction-independent
    at a simple pole, for lattice points with k <= 2, |m| <= 2."""
    delta = 1e-3
    log_eps = F5.log_eps
    for k in range(3):
        for m in range(-2, 3):
            s0 = complex(-2.0 * k, math.pi * m / log_eps)
            mags = []
            for theta in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
                s = s0 + delta * cmath.exp(1j * theta)
                ev = evaluate(F5, s, "odd", "binomial", 1e-12, pole_guard=delta / 4)
                mags.append(abs(ev.value) * delta)
            assert max(mags) / min(mags) < 1.05, (k, m)


def test_nearest_pole_distance_reported():
    ev = evaluate(F5, complex(-1.0, 0.5), "odd", "binomial", 1e-12)
    loc, k, m, dist = nearest_lattice_pole(F5, complex(-1.0, 0.5))
    assert ev.nearest_pole_distance == pytest.approx(dist)
    assert dist > 0.4


# ------------------------------------------- reference copies of earlier code

def scan_nearest_pole(field, s, lattice="split"):
    """The 15-candidate scan that nearest_lattice_pole replaced."""
    s = complex(s)
    spacing = math.pi / field.half_unit.log_eta
    k_mid = max(0, round(-s.real / 2.0))
    m_mid = round(s.imag / spacing)
    best = None
    for k in range(max(0, k_mid - 1), k_mid + 2):
        for m in range(m_mid - 2, m_mid + 3):
            if lattice == "combined" and (m + k) % 2 != 0:
                continue
            loc = complex(-2.0 * k, m * spacing)
            dist = abs(s - loc)
            if best is None or dist < best[3]:
                best = (loc, k, m, dist)
    return best


def mp_direct_reference(field, s, kind):
    """Z of the kind (Re s > 0) by the Dirichlet series in mpmath, summed
    from the exact integers F(n) until a term falls below 1e-20 of the sum."""
    first = 2 if kind == "even" else 1
    stride = 1 if kind == "combined" else 2
    with mp.workdps(30):
        sm = mp.mpc(s)
        total = mp.mpc(0)
        for term in islice(iter_sequence(field), first, None, stride):
            part = mp.exp(-sm * mp.log(term.fib))
            total += part
            if term.index > 10 and abs(part) < mp.mpf(1e-20) * abs(total):
                return complex(total)


def split_spread(field, s, kind, terms):
    """Sum over the head and the k-terms of the split series of
    |term| (1 + |d log term / d log u|), every factor formed by exp: one
    rounding of each u, w and partial sum moves the value by about
    (1 + |s|) 2^-53 times this."""
    log_eta = field.half_unit.log_eta
    first = 2 if kind == "even" else 1
    stride = 1 if kind == "combined" else 2
    n0 = _split_index(s, abs(s), first, stride, log_eta)
    head = (n0 - first) // stride
    per = 1 if field.is_norm_minus_one else 2
    logs = log_fib_upto(field, n0 // per)[first // per - 1:n0 // per - 1:stride // per]
    assert len(logs) == head
    spread = sum(math.exp(-s.real * log_f) for log_f in logs)
    scale = abs(cmath.exp(0.5 * s * math.log(field.q)))
    coeff = 1.0 + 0j
    for k in range(terms - head):
        u = cmath.exp(-(s + 2 * k) * log_eta)
        if kind == "combined":
            den = 1.0 - (-1) ** k * u
            gain = abs(u) / abs(den)
        else:
            den = 1.0 - u * u
            gain = 2.0 * abs(u * u) / abs(den)
        w = math.exp(-n0 * (s.real + 2 * k) * log_eta)
        spread += scale * abs(coeff) * w / abs(den) * (1.0 + gain)
        coeff = coeff * (-s - k) / (k + 1.0)
    return spread


@pytest.mark.parametrize("s", [complex(200000, 1), 1e9j, complex(1e200, 1e200)])
def test_binomial_refuses_an_s_above_its_cap_before_the_loop(s):
    """The unsplit series ran its stop test only from k_min = ceil(|s|) + 5
    on; the split series keeps its domain, so an |s| that puts k_min past
    the cap is refused at once, with k_min as the estimate."""
    k_min = math.ceil(abs(s)) + 5
    with pytest.raises(TooSlowConvergenceError) as info:
        zeta_odd_binomial(F5, s, tol=1e-10)
    err = info.value
    assert err.needed >= k_min > err.cap == _MAX_BINOMIAL_TERMS


class _CountingCmath:
    """cmath with its isfinite calls counted: the k-sum tests its running
    total once every _BINOMIAL_CHECK_STRIDE terms."""

    def __init__(self):
        self.isfinite_calls = 0

    def __getattr__(self, name):
        return getattr(cmath, name)

    def isfinite(self, z):
        self.isfinite_calls += 1
        return cmath.isfinite(z)


def test_binomial_refuses_a_non_finite_k_sum_within_one_check_stride(monkeypatch):
    """At -700+600i (D=5, odd) |C(-s, k)| overflows near k = 510, after
    which every term is NaN and the stop test cannot pass: the first check
    at k* = 350 passes, and the k-sum raises FactorOverflowError naming its
    term at the next, 1,000 terms on, not at its 100,000-term cap."""
    s = complex(-700, 600)
    counting = _CountingCmath()
    monkeypatch.setattr("fibzeta.continuation.cmath", counting)
    started = time.perf_counter()
    with pytest.raises(FactorOverflowError) as info:
        evaluate(F5, s, "odd", "binomial", 1e-10)
    elapsed = time.perf_counter() - started
    assert (info.value.factor, info.value.s) == ("a term of the k-sum", s)
    assert counting.isfinite_calls == 2
    assert elapsed < 0.05


@pytest.mark.parametrize("s, value", [(600.0, 1.0), (900.0, None), (99990.0, None)])
def test_binomial_far_right_sums_its_head_or_names_q_power(s, value):
    """Far right the split series is its head, F(1)^(-s) = 1 at D=5 (the
    unsplit k-sum overflowed in C(-s, k) here).  Where q^(s/2) leaves double
    range the route names it before summing."""
    if value is not None:
        assert evaluate(F5, complex(s), "odd", "binomial", 1e-10).value == value
        return
    with pytest.raises(FactorOverflowError) as info:
        evaluate(F5, complex(s), "odd", "binomial", 1e-10)
    assert (info.value.factor, info.value.s) == ("q^(s/2)", complex(s))



@pytest.mark.parametrize("lattice", ["split", "combined"])
@pytest.mark.parametrize("d", [2, 3, 5, 13, 29])
def test_nearest_pole_equals_the_candidate_scan(d, lattice):
    """Same (location, k, m, distance) as the scan: on random points, on the
    ties where -Re s/2 or Im s log eta/pi is a half-integer (or both), on
    lattice lines, and right of Re s = 0 where k is clamped to 0."""
    field = make_field(d)
    spacing = math.pi / field.half_unit.log_eta
    rng = random.Random(d)
    points = [complex(rng.uniform(-10, 5), rng.uniform(-30, 30)) for _ in range(2000)]
    for _ in range(500):
        k_half = -(2.0 * rng.randint(0, 5) + 1.0)
        m_half = (rng.randint(-6, 5) + 0.5) * spacing
        points += [complex(k_half, rng.uniform(-30, 30)),
                   complex(rng.uniform(-10, 5), m_half),
                   complex(k_half, m_half),
                   complex(-2.0 * rng.randint(0, 5), rng.randint(-6, 6) * spacing),
                   complex(rng.uniform(0, 5), rng.uniform(-30, 30)),
                   complex(rng.uniform(0, 5), m_half)]
    for s in points:
        assert nearest_lattice_pole(field, s, lattice) == scan_nearest_pole(field, s, lattice), s


@hyp_settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 13, 29]),
    kind=st.sampled_from(["odd", "even", "combined"]),
    re=st.floats(-8.0, 4.0),
    im=st.floats(-80.0, 80.0),
    tol=st.sampled_from([1e-6, 1e-10, 1e-12, 1e-14]),
)
def test_binomial_sum_matches_the_mpmath_unsplit_series(d, kind, re, im, tol):
    """The split series equals the unsplit one: within its tail bound plus
    (1 + |s|) 2^-53 times its spread (see split_spread) of the mpmath
    binomial series, also next to a pole, where the spread grows."""
    field = make_field(d)
    if not field.is_norm_minus_one and kind != "combined":
        return
    sum_kind = kind if field.is_norm_minus_one else "even"
    s = complex(re, im)
    lattice = "combined" if kind == "combined" and field.is_norm_minus_one else "split"
    try:
        value, terms, tail = _binomial_sum(field, s, tol, sum_kind)
    except ZeroDivisionError:
        assert nearest_lattice_pole(field, s, lattice)[3] < 1e-14
        return
    if not cmath.isfinite(value):
        # closer to a pole than u can resolve, 1 - u^2 is left with a
        # subnormal Im s and a term is inf, a value the route refuses
        assert nearest_lattice_pole(field, s, lattice)[3] < 1e-15
        return
    ref = mp_binomial_reference(field, s, kind)
    spread = split_spread(field, s, sum_kind, terms)
    assert abs(value - ref) <= tail + 8.0 * (1.0 + abs(s)) * 2.0**-53 * spread


@pytest.mark.parametrize("stride", [_BINOMIAL_CHECK_STRIDE, 4])
@hyp_settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 13, 29]),
    kind=st.sampled_from(["odd", "even", "combined"]),
    re=st.floats(-8.0, 4.0),
    im=st.floats(-40.0, 40.0),
    tol=st.sampled_from([1e-6, 1e-10, 1e-12, 1e-14]),
)
def test_binomial_sum_with_stepped_u_agrees_with_the_exp_per_term_loop(
    stride, d, kind, re, im, tol
):
    """Stepping u and w by one multiplication, re-formed by exp at k* and
    every stride terms after it (4 runs that inside short sums), moves the
    sum by rounding only against the same loop with every u and w formed
    by exp (a check stride of 1): the same term count and a value within
    4 (terms + 1) (1 + |s|) 2^-53 times the spread.  Where one loop divides
    by zero at an exact pole -2k*, so does the other."""
    field = make_field(d)
    if not field.is_norm_minus_one and kind == "odd":
        return
    if not field.is_norm_minus_one:
        kind = "even"
    s = complex(re, im)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuation, "_BINOMIAL_CHECK_STRIDE", 1)
        try:
            ref, terms, _ = _binomial_sum(field, s, tol, kind)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _binomial_sum(field, s, tol, kind)
            return
        except FactorOverflowError:
            ref = math.inf
        patch.setattr(continuation, "_BINOMIAL_CHECK_STRIDE", stride)
        if not cmath.isfinite(ref):
            # a subnormal Im s at a pole makes 1 - u^2 subnormal and a term
            # inf: each loop raises at its first check, or returns inf
            try:
                assert not cmath.isfinite(_binomial_sum(field, s, tol, kind)[0])
            except FactorOverflowError:
                pass
            return
        value, got_terms, _ = _binomial_sum(field, s, tol, kind)
    assert got_terms == terms
    spread = split_spread(field, s, kind, terms)
    assert abs(value - ref) <= 4.0 * (terms + 1) * (1.0 + abs(s)) * 2.0**-53 * spread

# far binomial points (D, kind, s): against the direct series the unsplit
# series erred 2.7e-10, 3.2e-4, 2.6e-2, 7.5e-12, 1.8e-7, 8.3e3, 1.8e51, 1.0e9
# and 3.3e-14 relative at tol 1e-12, most of it far outside its bound
FAR_BINOMIAL_POINTS = [
    (5, "odd", complex(1, 40)),
    (5, "odd", complex(1, 80.3)),
    (5, "even", complex(2, 240)),
    (5, "odd", complex(15, 0)),
    (5, "odd", complex(30, 0)),
    (5, "odd", complex(60, 0)),
    (5, "odd", complex(0.3, 400)),
    (5, "even", complex(0.3, 400)),
    (29, "even", complex(0.3, 400)),
]


@pytest.mark.parametrize("d, kind, s", FAR_BINOMIAL_POINTS)
def test_binomial_far_points_match_the_mpmath_direct_series(d, kind, s):
    field = make_field(d)
    ev = evaluate(field, s, kind, "binomial", 1e-12)
    ref = mp_direct_reference(field, s, kind)
    assert abs(ev.value - ref) <= max(ev.tail_bound, 1e-12 * abs(ref))



@pytest.mark.parametrize("d", [2, 3, 5, 13, 29])
def test_binomial_routes_refuse_an_exact_real_pole(d):
    """At s = -2k every split series has a pole, and so has the combined one
    at even k: the route raises PoleProximityError at distance 0.  At odd k
    the combined series of a norm -1 field has none and returns a finite
    value (a norm +1 field's combined route is the split even series).  The
    last k is even and as far left as u = eta^(2k) at k = 0 fits in e^700:
    there the partial sums overflow before term k, and the pole still wins."""
    field = make_field(d)
    routes = {"odd": zeta_odd_binomial, "even": zeta_even_binomial,
              "combined": zeta_combined_binomial}
    for k in (*range(11), 2 * int(175.0 / field.half_unit.log_eta)):
        s = complex(-2.0 * k)
        for kind, route in routes.items():
            if kind == "combined" and k % 2 == 1 and field.is_norm_minus_one:
                assert cmath.isfinite(route(field, s).value), (k, kind)
                continue
            with pytest.raises(PoleProximityError) as info:
                route(field, s)
            assert (info.value.k, info.value.distance) == (k, 0.0), (k, kind)


def iter_sequence_direct(field, s, parity, n_max):
    """The direct sum that walked iter_sequence and took a big-integer log of
    every F(n): (value, terms_used, tail bound)."""
    s = complex(s)
    stride = 1 if parity == "combined" else 2
    start = 1 if parity != "even" else 2
    total = 0j
    count = 0
    prev_f = None
    last_f = None
    gen = iter_sequence(field)
    next(gen)
    for term in gen:
        idx = term.index
        if idx < start or (idx - start) % stride != 0:
            continue
        total += cmath.exp(-s * math.log(term.fib))
        prev_f, last_f = last_f, term.fib
        count += 1
        if count >= n_max:
            break
    if prev_f is not None:
        ratio = math.exp(-s.real * (math.log(last_f) - math.log(prev_f)))
    else:
        ratio = math.exp(-stride * s.real * field.log_eps)
    ratio = max(ratio, math.exp(-stride * s.real * field.log_eps))
    last_term = math.exp(-s.real * math.log(last_f))
    tail = last_term * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return total, count, tail


DIRECT_TABLE_S = (complex(0.05, 7.3), complex(1.5, -2.0), complex(3.0, 0.0))


@pytest.mark.parametrize("order", ["rising", "falling"])
@pytest.mark.parametrize("d", [3, 5, 13, 29])
def test_direct_table_equals_the_iter_sequence_sum(d, order):
    """Value, terms and tail are the floats of the big-integer walk, whether
    the field's log F(n) table grows call by call or is longest first."""
    field = make_field(d)  # a fresh field, so its table starts empty
    sizes = [12, 200, 5000] if order == "rising" else [5000, 200, 12]
    seen = []
    for n_max in sizes:
        for parity in ("odd", "even", "combined"):
            for s in DIRECT_TABLE_S:
                ev = zeta_direct(field, s, parity, n_max)
                value, terms, tail = iter_sequence_direct(field, s, parity, n_max)
                assert (ev.value, ev.terms_used, ev.tail_bound) == (value, terms, tail)
        seen.append(len(log_fib_upto(field, 1)))
    # the odd and even parities of n_max terms reach index 2 n_max
    if order == "rising":
        assert seen == [24, 400, 10000]
    else:
        assert seen == [10000] * 3


def test_direct_table_belongs_to_its_field():
    """Norm +1 D = 3 and D = 5 share F(1) = 1; each field reads its own table,
    in either order of first use."""
    for first, second in ((make_field(5), make_field(3)), (make_field(3), make_field(5))):
        for field in (first, second):
            for parity in ("odd", "even", "combined"):
                ev = zeta_direct(field, complex(0.7, 2.0), parity, 50)
                value, terms, tail = iter_sequence_direct(field, complex(0.7, 2.0), parity, 50)
                assert (ev.value, ev.terms_used, ev.tail_bound) == (value, terms, tail)
        assert log_fib_upto(first, 100)[:100] != log_fib_upto(second, 100)[:100]
    assert log_fib_upto(make_field(3), 3) == tuple(math.log(f) for f in (1, 4, 15))
