"""Reference verification suite behind `zqu verify-paper`.

Each check recomputes a published reference value or a structural identity
from scratch and compares.  The element-set oracles here deliberately avoid
the Howell-basis machinery: closures are built by breadth-first additive
closure over rotated coefficient vectors, so the two routes stay independent.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Optional

from .codes import (
    CyclicCode,
    build_crt,
    count_cyclic_codes,
    enumerate_cyclic_codes,
)
from .errors import ZquError
from .galois import ideal_elements, unit_group_order
from .howell import ZqSpan
from .metrics import DistanceReport, WordR, _scan_distance, hamming_weight, min_distance
from .poly import (RPoly, ZqPoly, divmod_monic, factor_xn_minus_1, is_basic_primitive,
                   is_irreducible, order_of_x, parse_r_poly, residue_field, smallest_primitive,
                   teichmuller_lift, xn_minus_1)
from .ring import IdealDescriptor, ideal_descriptors, make_ring
from .value import Value


class CheckResult(Value):
    __slots__ = ("name", "passed", "detail", "seconds")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float):
        self.name, self.passed, self.detail, self.seconds = name, passed, detail, seconds

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


def _fail(cond: bool, message: str, notes: list):
    if not cond:
        notes.append(message)
    return cond


# -- independent element-set oracles ------------------------------------------


def _closure(vectors, q) -> frozenset:
    """Additive closure of integer vectors mod q (BFS over the subgroup)."""
    vectors = [tuple(v % q for v in vec) for vec in vectors]
    if not vectors:
        return frozenset()
    zero = (0,) * len(vectors[0])
    gens = set(vectors) - {zero}
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % q for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return frozenset(seen)


def _code_vectors(code: CyclicCode) -> list:
    """Generator rows by plain coefficient rotation (independent of RPoly.shift)."""
    n, q = code.n, code.params.q
    rows = []
    for g in code.generators:
        a = [g[i][0] for i in range(n)]
        b = [g[i][1] for i in range(n)]
        for i in range(n):
            ra = a[-i:] + a[:-i] if i else list(a)
            rb = b[-i:] + b[:-i] if i else list(b)
            rows.append(tuple(ra + rb))
            if code.closure_mode == "ideal":
                rows.append(tuple(([0] * n) + ra))  # u * word
    return rows


def _code_element_set(code: CyclicCode) -> frozenset:
    rows = _code_vectors(code)
    if not rows:
        return frozenset({tuple([0] * (2 * code.n))})
    return _closure(rows, code.params.q)


# -- the seven checks ----------------------------------------------------------


def check_ideal_census() -> tuple[bool, str]:
    notes: list[str] = []
    for (p, s), expected in [((2, 2), 7), ((3, 2), 8)]:
        params = make_ring(p, s)
        q = params.q
        descs = ideal_descriptors(p, s)
        _fail(len(descs) == expected, f"q={q}: found {len(descs)} ideals, expected {expected}", notes)
        census = {ideal_elements(d, params) for d in descs}
        _fail(len(census) == expected, f"q={q}: descriptor element sets collide", notes)
        # brute force: principal ideals are plain multiple sets (already
        # additively closed); 2-generator ideals are their pairwise sumsets.
        # (a + bu)(c + du) = ac + (ad + bc)u
        elements = list(itertools.product(range(q), repeat=2))
        principal = {frozenset((a * c % q, (a * d + b * c) % q) for a, b in elements)
                     for c, d in elements}
        found = set(principal)
        for x in principal:
            for y in principal:
                found.add(frozenset(((a + c) % q, (b + d) % q) for a, b in x for c, d in y))
        _fail(found == census, f"q={q}: brute-force ideal set differs from census", notes)
    return not notes, "; ".join(notes) or "censuses 7 (q=4) and 8 (q=9) match brute force"


def check_factorization() -> tuple[bool, str]:
    notes: list[str] = []
    for n, p, s in [(3, 2, 2), (7, 2, 2), (15, 2, 3), (5, 3, 2)]:
        params = make_ring(p, s)
        fact = factor_xn_minus_1(n, params)
        _fail(
            (fact.product() - xn_minus_1(params, n)).is_zero(),
            f"(n={n}, q={params.q}): factor product differs from x^n-1",
            notes,
        )
    r4 = make_ring(2, 2)
    names = [str(f) for f in factor_xn_minus_1(3, r4).factors]
    _fail(names == ["x+3", "x^2+x+1"], f"n=3 factors were {names}", notes)
    return not notes, "; ".join(notes) or "products exact for (3,4),(7,4),(15,8),(5,9); n=3 factors x+3, x^2+x+1"


def check_code_census() -> tuple[bool, str]:
    notes: list[str] = []
    r4 = make_ring(2, 2)
    total = count_cyclic_codes(3, r4)
    _fail(total == 63, f"count was {total}, expected 63", notes)
    codes = list(enumerate_cyclic_codes(3, r4))
    _fail(len(codes) == 63, f"enumerated {len(codes)} codes", notes)
    sets = {_code_element_set(c) for c in codes}
    _fail(len(sets) == 63, f"only {len(sets)} distinct element sets", notes)
    # single-factor codes carry exactly the base-ring ideals: their BFS
    # element sets, evaluated at x = 1 (coordinate sums mod q), are the
    # ideals of R at the factor x - 1
    q = r4.q
    zero_desc = IdealDescriptor.from_reading((r4.s, r4.s, None), r4.p, r4.s)
    for desc in ideal_descriptors(r4.p, r4.s):
        code = CyclicCode.from_components(3, r4, [desc, zero_desc])
        comps = code.components()
        _fail(comps[0] == desc and comps[1] == zero_desc,
              f"component round-trip failed for {desc.label()}", notes)
        realized = {(sum(v[:3]) % q, sum(v[3:]) % q) for v in _code_element_set(code)}
        _fail(realized == ideal_elements(desc, r4),
              f"component elements differ for {desc.label()}", notes)
    return not notes, "; ".join(notes) or "63 codes, distinct element sets; 7 single-factor codes match the base-ring ideals"


def check_unit_groups() -> tuple[bool, str]:
    notes: list[str] = []
    for p, s, m, expected in [(2, 2, 1, 8), (2, 2, 2, 192), (2, 3, 1, 32)]:
        q = p**s
        # an element of GR(R, m) is m pairs (a_k, b_k) in Z_q^2; it is a unit
        # iff its residue in F_{p^m}, (a_k mod p)_k, is nonzero
        brute = sum(1 for coeffs in itertools.product(range(q), repeat=2 * m)
                    if any(a % p for a in coeffs[::2]))
        formula = unit_group_order(p, s, m)
        _fail(brute == expected and formula == expected,
              f"(q={q}, m={m}): brute {brute}, formula {formula}, expected {expected}",
              notes)
    return not notes, "; ".join(notes) or "unit counts 8, 192, 32 match (p^m-1)p^{(2s-1)m}"


def _exact_distance(code: CyclicCode, budget: Optional[int] = None) -> DistanceReport:
    """The minimum Hamming distance from a scan with no floor.  The checks
    hold it against the BCH bound, the floor `min_distance` stops at: a scan
    stopping there would end at a word of a floor set too high, and hide it."""
    return _scan_distance(code, "hamming", budget, 0)


_Z8_GEN = "x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1"


def check_z8_length15_chain() -> tuple[bool, str]:
    notes: list[str] = []
    r8 = make_ring(2, 3)
    # GR(Z8 + uZ8, 4) holds the 15th roots of unity: ord_15(2) = 4
    modulus = RPoly.from_zq(teichmuller_lift(smallest_primitive(2, 4), r8))
    _fail(is_basic_primitive(modulus), "modulus residue is not primitive", notes)
    _fail(str(modulus) == "x^4+4*x^3+6*x^2+3*x+1", f"modulus was {modulus}", notes)
    g = parse_r_poly(_Z8_GEN, r8)
    _fail(divmod_monic(xn_minus_1(r8, 15), g)[1].is_zero(), "g does not divide x^15-1", notes)
    code = CyclicCode(15, r8, [g])
    free_gen = code.is_free()
    _fail(free_gen == g, "code is not free with generator g", notes)
    base, exp = code.cardinality()
    _fail(base**exp == 8**10, f"cardinality {base}^{exp} != 8^10", notes)
    cert = code.bch_bound()
    _fail(cert.delta == 7 and cert.b == 1 and cert.root_exponents == (1, 2, 3, 4, 5, 6),
          f"BCH run was b={cert.b}, delta={cert.delta}", notes)
    w = hamming_weight(WordR.from_rpoly(g * 4, 15))
    _fail(w == 7, f"weight of 4*g was {w}", notes)
    report = _exact_distance(code, budget=1 << 30)
    _fail(report.exhaustive and report.value == 7,
          f"exhaustive sweep gave {report.value} (exhaustive={report.exhaustive})", notes)
    detail = ("free (15, 64^5) code; delta=7 certificate and weight-7 word bracket d_H = 7; "
              f"full 2^30-word sweep confirms 7 ({report.words_scanned} words)")
    return not notes, "; ".join(notes) or detail


def check_z4_length7_chain() -> tuple[bool, str]:
    notes: list[str] = []
    r4 = make_ring(2, 2)
    gens = [parse_r_poly("3*x^3+x^2+2*x+1", r4), parse_r_poly("0+u*(x+3)", r4)]
    module_code = CyclicCode(7, r4, gens, "module")
    base, exp = module_code.cardinality()
    _fail(base**exp == 4**10, f"module-span cardinality {base}^{exp} != 4^10", notes)
    _fail(module_code.span().size() == 4**10, "module span does not hold 4^10 words", notes)
    lee = min_distance(module_code, "lee")
    _fail(lee.exhaustive and lee.words_scanned == 2**20 - 1,
          f"lee scan not exhaustive over 2^20-1 words ({lee.words_scanned})", notes)
    _fail(lee.value == 4, f"min Lee weight was {lee.value}", notes)
    gray = min_distance(module_code, "gray-hamming")
    _fail(gray.value == 4, f"min Gray-image Hamming weight was {gray.value}", notes)
    ideal_code = CyclicCode(7, r4, gens, "ideal")
    ibase, iexp = ideal_code.cardinality()
    _fail(ibase**iexp == 4**11, f"ideal-closure cardinality {ibase}^{iexp} != 4^11", notes)
    _fail(ideal_code.span().size() == 4**11, "ideal span does not hold 4^11 words", notes)
    u = RPoly.make(r4, [(0, 1)])
    _fail(ideal_code.contains(u) and not module_code.contains(u),
          "u-membership does not separate the two closures", notes)
    detail = ("module span is (14, 4^10, 4) under phi with Gray image (28, 2^20, 4); "
              "ideal closure is larger (4^11, contains u) - closure semantics differ")
    return not notes, "; ".join(notes) or detail


def check_property_suite() -> tuple[bool, str]:
    notes: list[str] = []
    # every factor re-lifts from its own residue (not from the primitive
    # polynomial the factorization used) and divides x^order - 1
    for n, p, s in [(3, 2, 2), (7, 2, 2), (15, 2, 3), (5, 3, 2)]:
        params = make_ring(p, s)
        fact = factor_xn_minus_1(n, params)
        for f in fact.factors:
            res = ZqPoly.make(residue_field(p), f.a.coeffs)
            _fail(f.is_monic(), f"factor {f} not monic", notes)
            _fail(is_irreducible(res), f"residue of {f} reducible", notes)
            relift = teichmuller_lift(res, params)
            _fail(relift == f.a, f"re-lift of {f} differs", notes)
            order = order_of_x(res)
            target = xn_minus_1(params, order)
            _fail(divmod_monic(target, f)[1].is_zero(),
                  f"{f} does not divide x^{order}-1", notes)
    # CRT idempotent identities
    for n, p, s in [(3, 2, 2), (7, 2, 2), (15, 2, 3), (5, 3, 2)]:
        params = make_ring(p, s)
        crt = build_crt(n, params)
        total = RPoly.zero(params)
        for i, e in enumerate(crt.idempotents):
            total = total + e
            _fail(((e * e).reduce_cyclic(n) - e).is_zero(), f"e_{i+1} not idempotent", notes)
            for j, e2 in enumerate(crt.idempotents):
                if i < j:
                    _fail((e * e2).reduce_cyclic(n).is_zero(),
                          f"e_{i+1} e_{j+1} != 0 at n={n}, q={params.q}", notes)
        _fail((total.reduce_cyclic(n) - RPoly.one(params)).is_zero(),
              f"idempotents do not sum to 1 at n={n}, q={params.q}", notes)
    # decompose/compose round-trip and generator-count formula on all 63 codes
    r4 = make_ring(2, 2)
    hypothesis_codes = 0
    for code in enumerate_cyclic_codes(3, r4):
        comps = code.components()
        again = CyclicCode.from_components(3, r4, comps)
        _fail(again.fingerprint() == code.fingerprint(), "compose round-trip failed", notes)
        _fail(again.components() == comps, "component round-trip failed", notes)
        _fail(code.cardinality() == (r4.p, code.span().size_exponent()),
              f"cardinality {code.cardinality()} differs from the span's", notes)
        can = code.canonical()
        if can.hypotheses_ok:
            hypothesis_codes += 1
            beta = code.minimum_generating_set()
            vecs = []
            for m in beta:
                vecs.append(tuple([m[i][0] for i in range(3)] + [m[i][1] for i in range(3)]))
                vecs.append(tuple([0, 0, 0] + [m[i][0] for i in range(3)]))
            span = _closure(vecs, 4) if vecs else frozenset({(0,) * 6})
            predicted = r4.p ** can.predicted_size_exponent(3, r4.s)
            _fail(len(span) == predicted, f"generating-set span {len(span)} != {predicted}", notes)
            _fail(len(span) == code.span().size(), "generating-set span != code size", notes)
    # free codes at n in {3, 7}: basis independence and BCH <= exact distance
    checked_free = 0
    for n in (3, 7):
        crt = build_crt(n, r4)
        t = crt.t
        for mask in range(1 << t):
            g = RPoly.one(r4)
            for l in range(t):
                if mask & (1 << l):
                    g = g * crt.factorization.factors[l]
            d = g.degree
            exponent = 2 * (n - d) * r4.s
            if 2**exponent > 1 << 22:
                continue
            code = CyclicCode(n, r4, [g])
            _fail(code.is_free() is not None, f"(divisor of degree {d}) not detected free", notes)
            base, exp = code.cardinality()
            _fail(exp == exponent, f"free cardinality exponent {exp} != {exponent}", notes)
            rows = []
            for i in range(n - d):
                shifted = g.shift(i).reduce_cyclic(n)
                rows.append([shifted[k][0] for k in range(n)] + [shifted[k][1] for k in range(n)])
                rows.append([0] * n + [shifted[k][0] for k in range(n)])
            if rows:
                span = ZqSpan.from_rows(rows, r4.p, r4.s, 2 * n)
                _fail(span.size_exponent() == exponent,
                      f"free basis of degree-{d} divisor is dependent", notes)
            if d < n:  # nonzero code: compare bound with exact distance
                cert = code.bch_bound()
                report = _exact_distance(code)
                _fail(report.exhaustive, "free-code scan not exhaustive", notes)
                _fail(cert.delta <= report.value,
                      f"BCH delta {cert.delta} exceeds exact distance {report.value}", notes)
                checked_free += 1
    detail = (f"Teichmuller/CRT identities hold; 63 round-trips pass; generator-count formula "
              f"verified on {hypothesis_codes} codes; BCH <= exact on {checked_free} free codes")
    return not notes, "; ".join(notes) or detail


CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("ideal-census", check_ideal_census),
    ("factorization", check_factorization),
    ("code-census", check_code_census),
    ("unit-groups", check_unit_groups),
    ("z8-length15-chain", check_z8_length15_chain),
    ("z4-length7-chain", check_z4_length7_chain),
    ("property-suite", check_property_suite),
]


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except ZquError as exc:
            passed, detail = False, f"error: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
