import math
import pickle
import sys
import threading
import tracemalloc
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from fibzeta import (
    DomainError,
    MEMBER,
    MEMBER_EVEN_INDEX,
    MEMBER_ODD_INDEX,
    NOT_MEMBER,
    NotSquarefreeError,
    fib,
    fib_upto,
    is_fib,
    iter_sequence,
    lucas,
    make_field,
    r1,
    sequence_terms,
)
from fibzeta import quadfield
from fibzeta.quadfield import (
    _NOT_A_MEMBER,
    _PELL_BLOCK,
    _SQUARES_MOD_2431,
    _SQUARES_MOD_4032,
    _VALIDATION_SCAN_CAP,
    MembershipResult,
    UnitElement,
    _membership_result,
    _pell_roots,
    _unit_by_search,
    is_square,
    log_fib_upto,
    pell_solutions_upto,
    squarefree_violation,
)


# ---------------------------------------------------------------- construction

def test_field_d5_unit_is_golden_ratio():
    f = make_field(5)
    assert (f.eps.a, f.eps.b) == (1, 1)
    assert f.q == 5 and f.ell == 4
    assert f.norm_eps == -1
    assert abs(f.log_eps - math.log((1 + math.sqrt(5)) / 2)) < 1e-15


def test_field_d3_unit_trace_and_norm():
    f = make_field(3)
    # 2 + sqrt(3): trace 4, norm +1
    assert f.eps.trace == 4
    assert f.norm_eps == 1
    assert f.q == 12 and f.ell == 1


def test_field_d10_unit_trace_and_norm():
    f = make_field(10)
    assert f.eps.trace == 6
    assert f.norm_eps == -1


def test_field_d13_unit():
    # brute-force oracle: smallest (a + b sqrt(13))/2 > 1 with norm +-1
    found = _unit_by_search(13, 10)
    assert found == (3, 1)
    f = make_field(13)
    assert (f.eps.a, f.eps.b) == (3, 1)
    assert f.norm_eps == -1


def test_field_d7_unit():
    f = make_field(7)
    # 8 + 3 sqrt(7), norm +1
    assert (f.eps.a, f.eps.b) == (16, 3)
    assert f.norm_eps == 1


@pytest.mark.parametrize("bad", [4, 8, 9, 12, 18, 25, 50, 98])
def test_not_squarefree_rejected(bad):
    with pytest.raises(NotSquarefreeError):
        make_field(bad)


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_too_small_rejected(bad):
    with pytest.raises(DomainError):
        make_field(bad)


def test_continued_fraction_agrees_with_search_for_small_d():
    squarefree = [d for d in range(2, 102) if all(d % (p * p) for p in range(2, 11))]
    for d in squarefree:
        f = make_field(d)
        assert abs(f.eps.norm) == 1
        found = _unit_by_search(f.q, f.eps.b)
        assert found == (f.eps.a, f.eps.b), f"D={d}"


def _unit_by_plain_search(q, b_cap):
    """_unit_by_search with a bare isqrt square test, as the reference."""
    for b in range(1, b_cap + 1):
        roots = [r for t in (q * b * b - 4, q * b * b + 4) if t >= 0
                 for r in (math.isqrt(t),) if r * r == t]
        if roots:
            return min(roots), b
    return None


def test_unit_search_matches_plain_isqrt_search():
    squarefree = [d for d in range(2, 500) if squarefree_violation(d) is None]
    for d in squarefree:
        f = make_field(d)
        cap = min(f.eps.b, _VALIDATION_SCAN_CAP)
        assert _unit_by_search(f.q, cap) == _unit_by_plain_search(f.q, cap), f"D={d}"


def test_unit_element_validation():
    with pytest.raises(DomainError):
        UnitElement(1, 1, 12)  # (1 + sqrt(12))/2 is not an algebraic integer
    with pytest.raises(DomainError):
        make_field(3).eps._replace(a=1)  # a changed copy is checked too


# --------------------------------------------------------------------- records

def test_fields_compare_and_hash_by_their_defining_values():
    # fields key the lru_cache of crosscheck's scans, so equal fields must hash equal
    a, b = make_field(5), make_field(5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_field(13) and a != (a.D, a.q, a.ell, a.eps, a.norm_eps, a.log_eps)


def test_fields_and_membership_results_refuse_assignment():
    field = make_field(5)
    result = is_fib(field, 13)
    for record, name in ((field, "D"), (field, "half_unit"), (result, "verdict")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert field.D == 5 and result.verdict == MEMBER_ODD_INDEX


def test_membership_result_is_true_exactly_for_members():
    field = make_field(5)
    assert is_fib(field, 13) and not is_fib(field, 4)
    assert MembershipResult(MEMBER, 3) and not MembershipResult(NOT_MEMBER, None)


def test_membership_result_takes_its_fields_by_position_or_name():
    assert MembershipResult(MEMBER, witness=3) == MembershipResult(verdict=MEMBER, witness=3)
    assert repr(MembershipResult(MEMBER, 3)) == "MembershipResult(verdict='member', witness=3)"
    for args, kwargs in (((MEMBER,), {}), ((MEMBER, 3, 4), {}), ((MEMBER,), {"verdict": MEMBER}),
                         ((MEMBER,), {"witnes": 3})):
        with pytest.raises(TypeError):
            MembershipResult(*args, **kwargs)


def test_records_survive_a_pickle_round_trip():
    field = make_field(5)
    logs = log_fib_upto(field, 30)  # builds the caches that the pickle leaves out
    member = is_fib(field, 13)
    assert field.half_unit.direct_parity == "even"
    records = [field, member, is_fib(field, 4), field.eps, sequence_terms(field, 8)[7]]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record
    copy = pickle.loads(pickle.dumps(field))
    assert is_fib(copy, 13) == member and log_fib_upto(copy, 30)[:30] == logs[:30]
    assert copy.half_unit == field.half_unit


def test_log_eps_is_correctly_rounded():
    """The float log eps equals the 50-digit mpmath value rounded once."""
    for d in range(2, 500):
        if squarefree_violation(d) is not None:
            continue
        f = make_field(d)
        with mp.workdps(50):
            ref = float(mp.log((f.eps.a + f.eps.b * mp.sqrt(f.q)) / 2))
        assert f.log_eps == ref, d


# ------------------------------------------------------------------- sequences

def test_d3_prefixes():
    f = make_field(3)
    terms = sequence_terms(f, 6)
    assert [t.fib for t in terms] == [0, 1, 4, 15, 56, 209]
    assert [t.lucas for t in terms] == [2, 4, 14, 52, 194, 724]


def test_d10_prefixes():
    f = make_field(10)
    terms = sequence_terms(f, 5)
    assert [t.fib for t in terms] == [0, 1, 6, 37, 228]
    assert [t.lucas for t in terms] == [2, 6, 38, 234, 1442]


def test_d5_is_standard_fibonacci_lucas():
    f = make_field(5)
    fibs = [0, 1]
    lucs = [2, 1]
    for _ in range(50):
        fibs.append(fibs[-1] + fibs[-2])
        lucs.append(lucs[-1] + lucs[-2])
    terms = sequence_terms(f, 51)
    assert [t.fib for t in terms] == fibs[:51]
    assert [t.lucas for t in terms] == lucs[:51]
    assert fib(f, 7) == 13
    assert lucas(f, 3) == 4
    assert 4 * 4 - 5 * 2 * 2 == -4  # L(3)^2 - q F(3)^2 = 4 N(eps)^3


@pytest.mark.parametrize("d", [2, 3, 5, 7, 10, 13])
def test_norm_identity(d):
    f = make_field(d)
    for t in sequence_terms(f, 60):
        assert t.lucas**2 - f.q * t.fib**2 == 4 * f.norm_eps**t.index


@pytest.mark.parametrize("d", [2, 5, 10, 13])
def test_binet_high_precision(d):
    """Recurrence values match the closed form (eps^n -+ eps^-n)/sqrt(q) to 1e-20."""
    f = make_field(d)
    with mp.workdps(120):
        eps = (f.eps.a + f.eps.b * mp.sqrt(f.q)) / 2
        eps_bar = f.norm_eps / eps
        sq = mp.sqrt(f.q)
        for t in sequence_terms(f, 201):
            fib_closed = (eps**t.index - eps_bar**t.index) / sq
            luc_closed = eps**t.index + eps_bar**t.index
            if t.index > 0:
                assert abs(fib_closed - t.fib) / max(t.fib, 1) < mp.mpf("1e-20")
            assert abs(luc_closed - t.lucas) / max(abs(t.lucas), 1) < mp.mpf("1e-20")


@pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
def test_fib_lucas_sequence_terms_and_fib_upto_follow_the_recurrence(d):
    """Each reads iter_sequence; the reference is a plain loop of
    x(n+2) = t x(n+1) - N x(n) from F(0) = 0, F(1) = b and L(0) = 2, L(1) = t."""
    f = make_field(d)
    t, norm = f.trace_eps, f.norm_eps
    fibs, lucs = [0, f.eps.b], [2, t]
    for _ in range(60):
        fibs.append(t * fibs[-1] - norm * fibs[-2])
        lucs.append(t * lucs[-1] - norm * lucs[-2])
    assert [fib(f, n) for n in range(62)] == fibs
    assert [lucas(f, n) for n in range(62)] == lucs
    assert [(x.index, x.fib, x.lucas) for x in sequence_terms(f, 62)] == list(
        zip(range(62), fibs, lucs))
    assert sequence_terms(f, 0) == sequence_terms(f, -3) == []
    assert [x.index for x in fib_upto(f, fibs[40])] == list(range(1, 41))
    assert [x.index for x in fib_upto(f, fibs[40] - 1)] == list(range(1, 40))
    assert fib_upto(f, 0) == []
    for fun in (fib, lucas):
        with pytest.raises(DomainError):
            fun(f, -1)


def test_fib_strictly_increasing_from_one():
    f = make_field(10)
    vals = [t.fib for t in sequence_terms(f, 40)]
    assert all(b > a for a, b in zip(vals[1:], vals[2:]))


# ------------------------------------------------------------------ membership

def test_is_fib_examples_d5():
    f = make_field(5)
    r = is_fib(f, 8)
    assert r.verdict == MEMBER_EVEN_INDEX and r.witness == 18
    assert is_fib(f, 4).verdict == NOT_MEMBER
    r = is_fib(f, 5)
    assert r.verdict == MEMBER_ODD_INDEX and r.witness == 11


def test_is_fib_witness_is_lucas_value():
    f = make_field(10)
    r = is_fib(f, 6)
    assert r.verdict == MEMBER_EVEN_INDEX
    assert r.witness == lucas(f, 2)  # 38 = 2 * 19, from Y^2 = 10*36 + 1


def test_is_fib_gives_norm_plus_one_members_the_plain_verdict():
    f = make_field(3)
    assert is_fib(f, 4).verdict == MEMBER
    assert is_fib(f, 5).verdict == NOT_MEMBER


def test_is_fib_invalid_input():
    f = make_field(5)
    with pytest.raises(DomainError):
        is_fib(f, 0)


def test_is_fib_rejects_nonpositive_n_on_norm_plus_one_field():
    f = make_field(3)
    with pytest.raises(DomainError):
        is_fib(f, 0)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 29])
def test_membership_tables_screen_both_signs_by_residue_of_n(d):
    f = make_field(d)
    assert "_membership_tables" not in vars(f)  # built on the first is_fib call
    is_fib(f, 1)
    assert "_membership_tables" in vars(f)
    tables = f._membership_tables
    assert [len(table) for table in tables] == [64 * 63, 11 * 13 * 17, 19 * 23, 29 * 31, 37 * 41, 43 * 47]
    for table in tables:
        m = len(table)
        squares = {i * i % m for i in range(m)}
        for r in range(m):
            minus = (d * r * r - f.ell) % m in squares
            plus = (d * r * r + f.ell) % m in squares
            assert table[r] == minus | plus << 1, (m, r)


@pytest.mark.parametrize("d", [2, 3, 5, 13, 29])
def test_membership_tables_pass_every_term_far_out_on_the_sign_of_its_index(d):
    # X^2 = q F(k)^2 + 4 N(eps)^k with X = L(k), so F(k) must pass every
    # table on the minus sign where N(eps)^k = -1 and on the plus sign
    # elsewhere, at terms far past any n a sweep to 10^6 reaches
    f = make_field(d)
    index_verdicts = {}
    for term in islice(iter_sequence(f), 1, 401):
        odd = f.is_norm_minus_one and term.index % 2 == 1
        for table in f._membership_tables:
            assert table[term.fib % len(table)] & (1 if odd else 2), (term.index, len(table))
        verdict = (MEMBER_ODD_INDEX if odd else MEMBER_EVEN_INDEX) if f.is_norm_minus_one else MEMBER
        index_verdicts.setdefault(term.fib, set()).add(verdict)
    assert term.fib > 10**80
    for n, verdicts in index_verdicts.items():
        assert is_fib(f, n).verdict in verdicts, n


@pytest.mark.parametrize("d", [2, 5, 10, 13])
def test_membership_tables_leave_few_exact_tests_up_to_a_million(monkeypatch, d):
    # the six tables pass 184-393 arguments of n <= 10^6 on to the exact
    # test for these fields (the two tables mod 4032 and 2431 alone passed
    # 31 460-73 054); without any one of the six, every count is above 550
    exact_root = quadfield._exact_root
    tested = []

    def recording_exact_root(x):
        tested.append(x)
        return exact_root(x)

    monkeypatch.setattr(quadfield, "_exact_root", recording_exact_root)
    f = make_field(d)
    hits = list(_pell_roots(f, 1, 10**6 + 1))
    assert len(hits) == len({t.fib for t in fib_upto(f, 10**6)})
    assert len(tested) <= 500, len(tested)


def test_pell_check_screens_every_integer_once_through_the_kernel(monkeypatch):
    from fibzeta import suites

    ranges = []

    def counting_kernel(field, start, stop):
        ranges.append((start, stop))
        return _pell_roots(field, start, stop)

    monkeypatch.setattr(suites, "_pell_roots", counting_kernel)
    for d in (5, 3):  # norm -1 and norm +1
        ranges.clear()
        assert suites.pell_check(make_field(d), bound=5000).passed
        assert [n for start, stop in ranges for n in range(start, stop)] == list(range(1, 5001))


@pytest.mark.parametrize("d, wrong", [
    # a swapped parity at F(6) = 8 (5*64 + 4 = 18^2), no hit at F(7) = 13,
    # a false member at 4
    (5, {8: (18, 0), 13: None, 4: (0, 6)}),
    # norm +1: no hit at F(4) = 56, false members at 5 and 6, one per sign
    (3, {56: None, 5: (0, 1), 6: (1, 0)}),
])
def test_pell_check_counts_each_disagreeing_integer_once(monkeypatch, d, wrong):
    from fibzeta import suites

    def lying_kernel(field, start, stop):
        hits = {n: (minus, plus) for n, minus, plus in _pell_roots(field, start, stop)}
        hits.update(wrong)
        return ((n, *hits[n]) for n in sorted(hits) if hits[n] is not None)

    monkeypatch.setattr(suites, "_pell_roots", lying_kernel)
    result = suites.pell_check(make_field(d), bound=1000)
    assert not result.passed and result.max_deviation == 3.0


def _reference_witnesses(field, n):
    """Witnesses of X^2 = q n^2 - 4 and + 4 (None where unsolvable), by bare isqrt."""
    if field.q % 4 == 0:
        base, unit_shift, scale = field.D * n * n, 1, 2
    else:
        base, unit_shift, scale = field.q * n * n, 4, 1
    out = []
    for t in (base - unit_shift, base + unit_shift):
        r = math.isqrt(t) if t >= 0 else -1
        out.append(scale * r if r >= 0 and r * r == t else None)
    return out


def _reference_is_fib(witness_minus, witness_plus, split):
    """is_fib's verdict rule before the residue filter: a new result every call;
    split gives the parity verdicts of a norm -1 field."""
    if not split:
        if witness_plus is not None:
            return MembershipResult(MEMBER, witness_plus)
        if witness_minus is not None:
            return MembershipResult(MEMBER, witness_minus)
        return MembershipResult(NOT_MEMBER, None)
    if witness_minus is not None:
        return MembershipResult(MEMBER_ODD_INDEX, witness_minus)
    if witness_plus is not None:
        return MembershipResult(MEMBER_EVEN_INDEX, witness_plus)
    return MembershipResult(NOT_MEMBER, None)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 29])
def test_pell_roots_match_plain_isqrt_reference(d):
    # 200 000 spans three block edges of the kernel
    f = make_field(d)
    scale = 2 if f.q % 4 == 0 else 1
    found = list(_pell_roots(f, 1, 200_001))
    assert [n for n, _, _ in found] == sorted({n for n, _, _ in found})
    hits = {n: (minus, plus) for n, minus, plus in found}
    for n in range(1, 200_001):
        wm, wp = _reference_witnesses(f, n)
        minus, plus = hits.get(n, (0, 0))
        assert (scale * minus or None, scale * plus or None) == (wm, wp), n
        if n in hits:
            assert _membership_result(f, minus, plus) == _reference_is_fib(
                wm, wp, f.is_norm_minus_one), n


@pytest.mark.parametrize("block", [_PELL_BLOCK, 97])
@pytest.mark.parametrize("d", [3, 5, 13])
def test_pell_roots_give_every_screen_survivor_the_exact_test(monkeypatch, d, block):
    monkeypatch.setattr(quadfield, "_PELL_BLOCK", block)
    f = make_field(d)
    tables = f._membership_tables
    exact_root = quadfield._exact_root
    tested = []

    def recording_exact_root(x):
        tested.append(x)
        return exact_root(x)

    monkeypatch.setattr(quadfield, "_exact_root", recording_exact_root)
    for start, stop in ((1, _PELL_BLOCK + 1000), (10**30, 10**30 + 1000)):
        for signs in (1, 2, 3):
            tested.clear()
            hits = list(_pell_roots(f, start, stop, signs))
            expected = []
            for n in range(start, stop):
                bits = signs
                for table in tables:
                    bits &= table[n % len(table)]
                expected += [f.D * n * n - f.ell] * (bits & 1) + [f.D * n * n + f.ell] * (bits >> 1)
            assert tested == expected
            assert all((signs & 1 or not minus) and (signs & 2 or not plus) for _, minus, plus in hits)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 29])
def test_packed_screens_decode_to_the_membership_tables(d):
    f = make_field(d)
    assert "_packed_screens" not in vars(f)  # built on the first is_fib call
    is_fib(f, 1)
    assert "_packed_screens" in vars(f)
    packed = f._packed_screens
    assert len(packed) == len(f._membership_tables)
    for table, (period, p, pattern) in zip(f._membership_tables, packed):
        assert (period, p, len(pattern)) == (4 * len(table), len(table), len(table))
        # n = 0 .. 4p - 1 starts every residue mod p at every offset mod 4
        far = 10**30 - 10**30 % period
        for n in (*range(period), *range(far, far + 8), far - 1):
            assert pattern[n % period // 4] >> 2 * (n % 4) & 3 == table[n % p], (p, n)


def _byte_screen_roots(field, start, stop, signs):
    """_pell_roots by a byte per n: the AND of the byte tables at each n of
    [start, stop), masked to signs, then the exact test of each sign left."""
    count = stop - start
    screen = -1
    for table in field._membership_tables:
        r = start % len(table)
        screen &= int.from_bytes((table * ((r + count) // len(table) + 1))[r : r + count], "little")
    hits = []
    for i, bits in enumerate(screen.to_bytes(count, "little")):
        bits &= signs
        if bits:
            n = start + i
            minus = bits & 1 and quadfield._exact_root(field.D * n * n - field.ell)
            plus = bits & 2 and quadfield._exact_root(field.D * n * n + field.ell)
            if minus or plus:
                hits.append((n, minus, plus))
    return hits


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 29])
def test_pell_roots_equal_a_byte_per_n_screen(monkeypatch, d):
    # blocks of 5 and 3 n start at every offset mod 4, and of 97 at every
    # offset and at many residues of every table; both give every survivor
    # of the byte tables, and only those, the same exact tests in order
    exact_root = quadfield._exact_root
    tested = []

    def recording_exact_root(x):
        tested.append(x)
        return exact_root(x)

    monkeypatch.setattr(quadfield, "_exact_root", recording_exact_root)
    f = make_field(d)
    for block in (_PELL_BLOCK, 97, 5, 4, 3):
        monkeypatch.setattr(quadfield, "_PELL_BLOCK", block)
        for start, stop in ((1, 3 * block + 7), (10**30, 10**30 + 10**5)):
            for signs in (1, 2, 3):
                tested.clear()
                expected = _byte_screen_roots(f, start, stop, signs)
                expected_tests = tested[:]
                tested.clear()
                assert list(_pell_roots(f, start, stop, signs)) == expected, (block, start, signs)
                assert tested == expected_tests, (block, start, signs)


def test_pell_block_patched_after_the_first_membership_test_changes_no_hit(monkeypatch):
    # the packed screens are sized by their moduli, not by the block that
    # first read them
    f = make_field(5)
    assert is_fib(f, 1)
    packed = f._packed_screens
    ranges = ((1, 20_000), (10**30, 10**30 + 20_000))
    expected = [list(_pell_roots(f, start, stop)) for start, stop in ranges]
    for block in (97, 5, 4, 3, 1 << 18):
        monkeypatch.setattr(quadfield, "_PELL_BLOCK", block)
        assert [list(_pell_roots(f, start, stop)) for start, stop in ranges] == expected, block
        assert f._packed_screens is packed


def test_pell_sweep_memory_stays_under_100_kib_whatever_the_range():
    # a block of 2^16 n holds a few 16 KB packed screens at once: the traced
    # peak of a sweep over 1 .. 10^6, less its hits, is 71 409 bytes (at a
    # byte per n it was 341 574)
    f = make_field(5)
    is_fib(f, 1)  # the tables are the field's, not the sweep's
    tracemalloc.start()
    try:
        hits = list(_pell_roots(f, 1, 10**6 + 1))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hits) == len({t.fib for t in fib_upto(f, 10**6)})
    assert peak - current < 100 * 1024, peak - current


@pytest.mark.parametrize("sign", [0, 2, 7, -2])
def test_pell_solutions_upto_refuses_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="sign"):
        pell_solutions_upto(make_field(5), sign, 100)


def test_pell_solutions_upto_gives_each_sign_its_own_solutions():
    f = make_field(5)  # 5 t^2 - 4 is a square at odd-index F, 5 t^2 + 4 at even
    assert pell_solutions_upto(f, -1, 100) == (1, 2, 5, 13, 34, 89)
    assert pell_solutions_upto(f, 1, 100) == (1, 3, 8, 21, 55)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 29])
def test_is_fib_matches_plain_isqrt_reference(d):
    f = make_field(d)
    for n in range(1, 20_001):
        wm, wp = _reference_witnesses(f, n)
        assert is_fib(f, n) == _reference_is_fib(wm, wp, f.is_norm_minus_one), n


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_pell_roots_equal_is_fib_across_block_edges_and_far_from_one(monkeypatch, d):
    f = make_field(d)
    far = fib(f, 300) - 3

    def assert_kernel_equals_is_fib(start, stop):
        hits = {n: _membership_result(f, minus, plus) for n, minus, plus in _pell_roots(f, start, stop)}
        assert all(start <= n < stop for n in hits)
        for n in range(start, stop):
            assert hits.get(n, _NOT_A_MEMBER) == is_fib(f, n), n
        return hits

    ranges = [(1, 1), (far, far), (1, 3000), (far, far + 3000), (10**30, 10**30 + 3000)]
    for start, stop in ranges:
        assert_kernel_equals_is_fib(start, stop)
    assert far + 3 in assert_kernel_equals_is_fib(far, far + 4)
    # blocks of 97 n: every range above crosses block edges, at many rotations
    # of every table (test_pell_roots_match_plain_isqrt_reference crosses
    # full-size ones)
    monkeypatch.setattr(quadfield, "_PELL_BLOCK", 97)
    for start, stop in ranges:
        assert_kernel_equals_is_fib(start, stop)


@pytest.mark.parametrize("d", [2, 3, 5, 13, 29])
def test_is_fib_large_members_give_lucas_witness(d):
    f = make_field(d)
    for k in (299, 300):
        n = fib(f, k)
        assert n > 10**40
        r = is_fib(f, n)
        if f.is_norm_minus_one:
            assert r.verdict == (MEMBER_ODD_INDEX if k % 2 else MEMBER_EVEN_INDEX)
        else:
            assert r.verdict == MEMBER
        assert r.witness == lucas(f, k)
        assert is_fib(f, n + 1).verdict == NOT_MEMBER


def test_is_fib_non_members_share_one_result():
    f = make_field(5)
    assert is_fib(f, 4) is is_fib(f, 6) is is_fib(f, 10**30)
    assert not is_fib(f, 4)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 10, 13])
def test_membership_matches_enumeration(d):
    f = make_field(d)
    bound = 100_000
    odd_set = set()
    even_set = set()
    for t in fib_upto(f, bound):
        (odd_set if t.index % 2 else even_set).add(t.fib)
    verdicts = {n: _membership_result(f, minus, plus).verdict
                for n, minus, plus in _pell_roots(f, 1, bound + 1)}
    assert set(verdicts) == odd_set | even_set
    if f.is_norm_minus_one:
        for n, verdict in verdicts.items():
            assert n in (odd_set if verdict == MEMBER_ODD_INDEX else even_set), (d, n)


# -------------------------------------------------------------------------- r1

def test_r1_trivial_values():
    assert r1(0) == 1
    assert r1(4) == 2
    assert r1(3) == 0
    assert r1(-4) == 0


@given(st.integers(min_value=-100, max_value=100_000))
@hyp_settings(max_examples=300, deadline=None)
def test_r1_counts_integer_roots(n):
    brute = sum(1 for x in range(-400, 401) if x * x == n)
    assert r1(n) == brute


@given(st.integers(min_value=0, max_value=10**40))
@hyp_settings(max_examples=500, deadline=None)
def test_is_square_consistent_with_isqrt(n):
    assert is_square(n) == (math.isqrt(n) ** 2 == n)


@pytest.mark.parametrize("m,table", [(4032, _SQUARES_MOD_4032), (2431, _SQUARES_MOD_2431)])
def test_square_residue_tables_are_exact(m, table):
    squares = {i * i % m for i in range(m)}
    assert table == bytes(r in squares for r in range(m))


def test_is_square_exhaustive_on_small_and_near_square_integers():
    for n in range(-2 * 4032, 2 * 4032 * 17):
        assert is_square(n) == (n >= 0 and math.isqrt(n) ** 2 == n), n
    for k in range(1, 100_000):
        assert is_square(k * k)
        assert not is_square(k * k + 1)
        assert is_square(k * k - 1) == (k == 1)


@given(st.integers(min_value=2, max_value=10**20))
@hyp_settings(max_examples=300, deadline=None)
def test_is_square_on_squares_and_neighbours(k):
    assert is_square(k * k)
    assert not is_square(k * k - 1)
    assert not is_square(k * k + 1)


def test_iter_sequence_is_lazy_and_consistent():
    f = make_field(13)
    it = iter_sequence(f)
    first = [next(it) for _ in range(8)]
    assert [t.fib for t in first] == [0, 1, 3, 10, 33, 109, 360, 1189]


def test_log_fib_table_grows_correctly_under_racing_threads():
    """Threads that grow one field's table at once may redo each other's work,
    but every table any of them reads holds math.log(F(n)) at index n - 1."""
    field = make_field(13)
    reference = [math.log(t.fib) for t in sequence_terms(field, 3001)[1:]]
    sizes = [7, 3000, 40, 1500, 2999, 1, 800, 2200]
    errors = []

    def grow(n):
        try:
            for k in range(n, 3001, 397):
                logs = log_fib_upto(field, k)
                if len(logs) < k or list(logs) != reference[:len(logs)]:
                    errors.append((n, k, len(logs)))
        except Exception as exc:  # a thread's failure must fail the test
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(n,)) for n in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
