"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them inline; `zqu verify-paper` prints
the same table).  Criterion 5 includes the full 2^30-word Hamming sweep,
which takes under 0.2 s (the whole `zqu verify-paper` takes about 0.8 s on a
2-core VM).
"""

import time

import pytest

from zqu.verify import (
    check_code_census,
    check_factorization,
    check_ideal_census,
    check_property_suite,
    check_unit_groups,
    check_z4_length7_chain,
    check_z8_length15_chain,
)

CRITERIA = [
    ("1 ideal census (q=4: 7, q=9: 8; closure-complete)", check_ideal_census, 5.0),
    ("2 factorization of x^n-1 for (3,4),(7,4),(15,8),(5,9)", check_factorization, 1.0),
    ("3 code census (63 codes, distinct; single-factor match)", check_code_census, 30.0),
    ("4 unit groups (8, 192, 32 by exhaustion and formula)", check_unit_groups, 5.0),
    ("5 Z8 length-15 chain (free 64^5, delta=7, d_H=7)", check_z8_length15_chain, 10.0),
    ("6 Z4 length-7 chain (4^10 span, Lee 4, Gray 4; 4^11 ideal)", check_z4_length7_chain, 60.0),
    ("7 property suites (Hensel, CRT, round-trips, counts, BCH)", check_property_suite, 300.0),
]


@pytest.mark.parametrize("name,check,limit", CRITERIA, ids=[c[0][:40] for c in CRITERIA])
def test_acceptance_criterion(name, check, limit):
    start = time.perf_counter()
    passed, detail = check()
    elapsed = time.perf_counter() - start
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"{status}  criterion {name}  [{elapsed:.2f}s < {limit:.0f}s]  {detail}")
    assert passed, detail
    assert elapsed < limit, f"criterion exceeded its runtime budget: {elapsed:.2f}s >= {limit}s"


def test_full_suite_reports_all_green():
    from zqu.verify import run_all

    results = run_all()
    assert len(results) == 7
    for r in results:
        print(("PASS" if r.passed else "FAIL") + f"  {r.name}  {r.detail}")
    assert all(r.passed for r in results)


VERIFY_PAPER_OUTPUT = [
    ("ideal-census", True, "censuses 7 (q=4) and 8 (q=9) match brute force"),
    ("factorization", True,
     "products exact for (3,4),(7,4),(15,8),(5,9); n=3 factors x+3, x^2+x+1"),
    ("code-census", True,
     "63 codes, distinct element sets; 7 single-factor codes match the base-ring ideals"),
    ("unit-groups", True, "unit counts 8, 192, 32 match (p^m-1)p^{(2s-1)m}"),
    ("z8-length15-chain", True,
     "free (15, 64^5) code; delta=7 certificate and weight-7 word bracket d_H = 7; "
     "full 2^30-word sweep confirms 7 (1073741823 words)"),
    ("z4-length7-chain", True,
     "module span is (14, 4^10, 4) under phi with Gray image (28, 2^20, 4); "
     "ideal closure is larger (4^11, contains u) - closure semantics differ"),
    ("property-suite", True,
     "Teichmuller/CRT identities hold; 63 round-trips pass; generator-count formula "
     "verified on 9 codes; BCH <= exact on 8 free codes"),
]


def test_verify_paper_output_is_pinned():
    from zqu.verify import run_all

    assert [(r.name, r.passed, r.detail) for r in run_all()] == VERIFY_PAPER_OUTPUT
