"""Independent oracles shared by the tests.

Everything here deliberately avoids the library's Howell-basis machinery:
element sets come from breadth-first additive closure over explicitly rotated
coefficient vectors, so library results are checked against a second route.
Teichmuller lifts are checked against the routes the library's closed form
replaced: quadratic Hensel lifting inside x^N - 1 and the fixed-point loop.
"""

from __future__ import annotations

from zqu import fppoly
from zqu.errors import PreconditionError
from zqu.poly import ZqPoly, xn_minus_1_zq


def additive_closure(vectors, q):
    """BFS closure of integer vectors under addition mod q."""
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


def rotate(row, i):
    i %= len(row)
    return tuple(row[-i:] + row[:-i]) if i else tuple(row)


def code_generator_rows(code):
    """Shift/u-multiple rows of a code's generators via plain list rotation."""
    n, q = code.n, code.params.q
    rows = []
    for g in code.generators:
        a = [g[k][0] for k in range(n)]
        b = [g[k][1] for k in range(n)]
        for i in range(n):
            row = list(rotate(a, i)) + list(rotate(b, i))
            rows.append(tuple(row))
            if code.closure_mode == "ideal":
                rows.append(tuple([0] * n + list(rotate(a, i))))
    return rows


def code_element_set(code):
    rows = code_generator_rows(code)
    if not rows:
        return frozenset({(0,) * (2 * code.n)})
    return additive_closure(rows, code.params.q)


def brute_min_weight(code, weight_fn):
    """Minimum weight over the BFS element set; weight_fn sees (a, b) pairs."""
    n = code.n
    best = None
    for vec in code_element_set(code):
        if not any(vec):
            continue
        pairs = [(vec[i], vec[n + i]) for i in range(n)]
        w = weight_fn(pairs)
        if best is None or w < best:
            best = w
    return best


def hamming_pairs(pairs):
    return sum(1 for a, b in pairs if a or b)


def lee_pairs(pairs):
    table = (0, 1, 2, 1)
    return sum(table[b % 4] + table[(a + b) % 4] for a, b in pairs)


def _hensel_pair(target, gbar, hbar):
    """Lift a coprime factor pair of `target` mod p to an exact pair mod q.

    Quadratic iteration: the factorization and its Bezout witnesses are
    refined together, doubling precision each step.
    """
    params = target.params
    p, q = params.p, params.q
    d, abar, bbar = fppoly.xgcd(gbar, hbar, p)
    if len(d) != 1:
        raise PreconditionError("factor pair is not coprime mod p")
    G = ZqPoly.make(params, gbar)
    H = ZqPoly.make(params, hbar)
    A = ZqPoly.make(params, abar)
    B = ZqPoly.make(params, bbar)
    one = ZqPoly.const(params, 1)
    precision = p
    while precision < q:
        e = target - G * H
        quo, rem = divmod(B * e, G)
        G = G + rem
        H = H + A * e + quo * H
        delta = A * G + B * H - one
        quo2, rem2 = divmod(B * delta, G)
        B = B - rem2
        A = A - A * delta - quo2 * H
        precision = precision * precision
    assert (target - G * H).is_zero(), "Hensel iteration failed to converge"
    return G, H


def hensel_lift(gbar, params):
    """The monic lift of an irreducible gbar over F_p (nonzero constant term)
    that divides x^N - 1, N the order of gbar's roots, by Hensel lifting the
    split x^N - 1 = gbar * cofactor mod p."""
    coeffs = [int(c) % params.p for c in gbar]
    root_order = fppoly.order_of_x(coeffs, params.p)
    target = xn_minus_1_zq(params, root_order)
    xn1 = [params.p - 1] + [0] * (root_order - 1) + [1]
    cofactor, rem = fppoly.poly_divmod(xn1, coeffs, params.p)
    assert not rem
    if len(cofactor) == 1:
        return target
    return _hensel_pair(target, coeffs, cofactor)[0]


def teichmuller_loop(a, p, q):
    """Teichmuller representative of a in Z_q: iterate a -> a^p to a fixed point."""
    t = a % q
    prev = None
    while t != prev:
        prev = t
        t = pow(t, p, q)
    return t


def gr_teichmuller_loop(e):
    """Teichmuller representative in GR(R, m): iterate z -> z^(p^m) to a fixed point."""
    step = e.ctx.params.p ** e.ctx.m
    t = e
    prev = None
    while t != prev:
        prev = t
        t = t**step
    return t
