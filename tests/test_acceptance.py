"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and never loosened at runtime.
"""

import random
import time

from fibzeta import make_field
from fibzeta.suites import (
    CheckResult,
    cross_method_check,
    golden_specialization_checks,
    pell_check,
    residue_checks,
    sequence_checks,
    special_function_checks,
    special_value_checks,
    splitting_check,
    trivial_zero_checks,
    zeta_cancellation_check,
)

FIELDS = [make_field(d) for d in (2, 5, 10, 13)]


def report(criterion: str, results: list[CheckResult], started: float, budget: float):
    elapsed = time.time() - started
    ok = all(r.passed for r in results)
    worst = max((r.max_deviation for r in results), default=0.0)
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
          f"(worst {worst:.3e}, {elapsed:.1f}s of {budget:.0f}s budget)")
    for r in results:
        print(f"  {r.line()}")
    assert elapsed < budget, f"{criterion} exceeded its time budget"
    for r in results:
        assert r.passed, r.line()


def test_criterion_1_sequence_fidelity():
    t0 = time.time()
    report("1 sequence-fidelity", sequence_checks(), t0, 1.0)


def test_criterion_2_pell_equivalence():
    t0 = time.time()
    results = [pell_check(f, 1_000_000) for f in FIELDS]
    report("2 pell-equivalence", results, t0, 30.0)


def test_criterion_3_cross_method_agreement():
    t0 = time.time()
    rng = random.Random(20250811)
    results = []
    for f in FIELDS:
        results.extend(cross_method_check(f, rng, points=200))
    report("3 cross-method", results, t0, 120.0)


def test_criterion_4_golden_specialization():
    t0 = time.time()
    results = golden_specialization_checks()
    report("4 golden-specialization", results, t0, 5.0)


def test_criterion_5_pole_structure():
    t0 = time.time()
    results = []
    for d in (5, 10):
        results.extend(residue_checks(make_field(d)))
    report("5 pole-structure", results, t0, 60.0)


def test_criterion_6_special_values_and_trivial_zeros():
    t0 = time.time()
    results = []
    for f in FIELDS:
        results.extend(special_value_checks(f))
        if f.D == 5:
            results.extend(trivial_zero_checks(f))
    report("6 special-values", results, t0, 10.0)


def test_criterion_7_zeta_cancellation():
    t0 = time.time()
    results = [zeta_cancellation_check(make_field(5), random.Random(7))]
    report("7 zeta-cancellation", results, t0, 5.0)


def test_criterion_8_special_function_suite():
    t0 = time.time()
    results = special_function_checks(random.Random(8))
    report("8 special-functions", results, t0, 30.0)


def test_splitting_identity_supplement():
    # combined = odd + even, part of the continuation module contract
    t0 = time.time()
    results = [splitting_check(make_field(5), random.Random(9))]
    report("S splitting-identity", results, t0, 30.0)
