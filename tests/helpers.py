"""Independent oracles shared by the tests.

Everything here deliberately avoids the library's Howell-basis machinery:
element sets come from `zqu.verify`'s oracles, breadth-first additive closure
over explicitly rotated coefficient vectors, so library results are checked
against a second route.
Teichmuller lifts are checked against the routes the library's closed form
replaced: quadratic Hensel lifting inside x^N - 1 and the fixed-point loop.

Elements of R are (a, b) pairs, as in the library; `pair_mul` is their
product, written out from u^2 = 0.

The Galois-ring element layer (`GaloisRingCtx`, `GrElem`, `build_ctx`,
`nth_root_of_unity`, `eval_at`) computes in GR(R, m) = R[x]/(f) by RPoly
products and `divmod_monic`, a route independent of `ideal_span_mod`.  Ideal
spans in GR(R, m) are checked against the route the shift-and-subtract
builder replaced: rows from Galois-ring element multiplication.  Code spans
are checked against the rotation rows x^i * g and u * x^i * g, and BCH root
exponents against Horner evaluation of g at the powers of zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from zqu.errors import LengthNotCoprimeError, PreconditionError
from zqu.galois import gr_ideal_span
from zqu.howell import ZqSpan
from zqu.poly import (RPoly, ZqPoly, cyclotomic_cosets, divmod_monic, is_basic_irreducible,
                      is_basic_primitive, order_of_x, smallest_primitive, teichmuller_lift,
                      xn_minus_1_zq)
from zqu.ring import IdealDescriptor, RingParams
from zqu.verify import _code_element_set, _code_vectors


def pair_mul(a1, b1, a2, b2, q):
    """(a1 + b1 u)(a2 + b2 u) = a1 a2 + (a1 b2 + b1 a2) u, on ints or numpy arrays."""
    return (a1 * a2) % q, (a1 * b2 + b1 * a2) % q


# -- the Galois-ring element layer ---------------------------------------------


@dataclass(frozen=True)
class GaloisRingCtx:
    """GR(R, m) with a fixed monic basic irreducible modulus of degree m."""

    params: RingParams
    modulus: RPoly
    m: int
    primitive: bool

    @property
    def size(self) -> int:
        return (self.params.q ** 2) ** self.m

    @property
    def residue_field_size(self) -> int:
        return self.params.p**self.m

    def zero(self) -> "GrElem":
        return GrElem(self, ((0, 0),) * self.m)

    def one(self) -> "GrElem":
        return self.embed_pair(1, 0)

    def embed_pair(self, a: int, b: int) -> "GrElem":
        q = self.params.q
        pairs = [(a % q, b % q)] + [(0, 0)] * (self.m - 1)
        return GrElem(self, tuple(pairs[: self.m]))

    def from_rpoly(self, poly: RPoly) -> "GrElem":
        rem = divmod_monic(poly, self.modulus)[1] if poly.degree >= self.m else poly
        pairs = [rem[i] for i in range(self.m)]
        return GrElem(self, tuple(pairs))

    @property
    def xi(self) -> "GrElem":
        """The class of x; a basic primitive element when the modulus is
        basic primitive."""
        if not self.primitive:
            raise PreconditionError("modulus is not basic primitive; no designated xi")
        return self.from_rpoly(RPoly.make(self.params, [(0, 0), (1, 0)]))

    def elements(self):
        q = self.params.q
        total = self.size
        for enc in range(total):
            pairs = []
            v = enc
            for _ in range(self.m):
                a = v % q
                v //= q
                b = v % q
                v //= q
                pairs.append((a, b))
            yield GrElem(self, tuple(pairs))


@dataclass(frozen=True)
class GrElem:
    """Element of GR(R, m): coordinates in the basis 1, alpha, ..., alpha^{m-1}."""

    ctx: GaloisRingCtx
    pairs: tuple[tuple[int, int], ...]

    def to_rpoly(self) -> RPoly:
        return RPoly.make(self.ctx.params, self.pairs)

    def is_zero(self) -> bool:
        return all(a == 0 and b == 0 for a, b in self.pairs)

    def __add__(self, other: "GrElem") -> "GrElem":
        q = self.ctx.params.q
        return GrElem(
            self.ctx,
            tuple(
                ((a1 + a2) % q, (b1 + b2) % q)
                for (a1, b1), (a2, b2) in zip(self.pairs, other.pairs)
            ),
        )

    def __sub__(self, other: "GrElem") -> "GrElem":
        q = self.ctx.params.q
        return GrElem(
            self.ctx,
            tuple(
                ((a1 - a2) % q, (b1 - b2) % q)
                for (a1, b1), (a2, b2) in zip(self.pairs, other.pairs)
            ),
        )

    def __mul__(self, other: "GrElem") -> "GrElem":
        prod = self.to_rpoly() * other.to_rpoly()
        return self.ctx.from_rpoly(prod)

    def __pow__(self, k: int) -> "GrElem":
        result = self.ctx.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def residue(self) -> tuple[int, ...]:
        """Image in the residue field F_{p^m}, as F_p coordinates."""
        p = self.ctx.params.p
        return tuple(a % p for a, _ in self.pairs)

    def is_unit(self) -> bool:
        return any(self.residue())

    def a_coeffs(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.pairs)


def build_ctx(f: RPoly) -> GaloisRingCtx:
    """Context for GR(R, m) = R[x]/(f); f must be monic basic irreducible."""
    if not f.is_monic():
        raise PreconditionError("modulus must be monic")
    if not is_basic_irreducible(f):
        raise PreconditionError("modulus residue is reducible over F_p")
    return GaloisRingCtx(f.params, f, f.degree, is_basic_primitive(f))


@lru_cache(maxsize=None)
def nth_root_of_unity(n: int, params: RingParams) -> tuple[GaloisRingCtx, GrElem]:
    """A canonical basic primitive n-th root of unity.

    The context modulus is the Teichmuller lift of the canonical primitive
    polynomial of degree m = ord_n(p), so xi, the class of x, is the
    Teichmuller lift of a primitive element of F_{p^m}; zeta = xi^{(p^m - 1)/n}.
    """
    if n < 1:
        raise PreconditionError("n must be positive")
    if math.gcd(n, params.p) != 1:
        raise LengthNotCoprimeError(f"gcd({n}, {params.p}) != 1")
    m = next(k for k in range(1, n + 1) if pow(params.p, k, n) == 1 % n)
    pi = smallest_primitive(params.p, m)
    modulus = RPoly.from_zq(teichmuller_lift(pi, params))
    ctx = build_ctx(modulus)
    zeta = ctx.xi ** ((params.p**m - 1) // n)
    return ctx, zeta


def eval_at(g: RPoly, e: GrElem, ctx: GaloisRingCtx) -> GrElem:
    """Horner evaluation of an R-polynomial at a Galois-ring element."""
    acc = ctx.zero()
    for i in range(g.degree, -1, -1):
        acc = acc * e + ctx.embed_pair(*g[i])
    return acc


def gr_ideal_elements(desc: IdealDescriptor, ctx: GaloisRingCtx) -> frozenset[GrElem]:
    """The census ideal `desc` of GR(R, m) as a set of GrElems."""
    span = gr_ideal_span(desc, ctx.modulus)
    m = ctx.m
    out = set()
    for vec in span.elements():
        pairs = tuple((vec[i], vec[m + i]) for i in range(m))
        out.add(GrElem(ctx, pairs))
    return frozenset(out)


def short_lengths(p, top=12):
    """The lengths n < 64 prime to p with ord_n(p) <= top, so that no
    primitive-polynomial search runs past degree `top`."""
    return [n for n in range(1, 64) if n % p and len(cyclotomic_cosets(n, p)[1 % n]) <= top]


# -- element sets, spans and roots by independent routes ------------------------


def product(polys, params):
    """The product of R-polynomials, 1 for none."""
    out = RPoly.one(params)
    for f in polys:
        out = out * f
    return out


def rotate(row, i):
    i %= len(row)
    return tuple(row[-i:] + row[:-i]) if i else tuple(row)


def brute_min_weight(code, weight_fn):
    """Minimum weight over verify's BFS element set; weight_fn sees (a, b) pairs."""
    n = code.n
    best = None
    for vec in _code_element_set(code):
        if not any(vec):
            continue
        pairs = [(vec[i], vec[n + i]) for i in range(n)]
        w = weight_fn(pairs)
        if best is None or w < best:
            best = w
    return best


def full_scan_distance(code):
    """The minimum Hamming weight of a code from a kernel scan of every
    nonzero word with no floor: a check of the BCH floor must not rest on a
    scan that stops at a word weighing it."""
    from zqu import kernels
    from zqu.metrics import weight_table

    span = code.span()
    basis, ranges = span.enumeration_basis()
    table = weight_table("hamming", code.params)
    return kernels.min_weight_scan(basis, ranges, table, code.params.q, code.n, span.size(), 0)[0]


def enumerated_min_hamming(code):
    """The minimum Hamming weight over every nonzero word of a code, listed at
    once as digit vectors times the span basis: no scan kernel."""
    import numpy as np

    n, q = code.n, code.params.q
    basis, ranges = code.span().enumeration_basis()
    digits = np.indices(ranges).reshape(len(ranges), -1).T
    words = digits @ np.array(basis, dtype=np.int64).reshape(len(ranges), 2 * n) % q
    weights = ((words[:, :n] != 0) | (words[:, n:] != 0)).sum(axis=1)
    return int(weights[1:].min())  # row 0 is the zero word


def residue_code_distance(g0, n, p):
    """The minimum distance of the cyclic code (g0 mod p) over F_p, g0 a
    proper monic divisor of x^n - 1 over Z_q, from its p^(n - deg g0) words."""
    import numpy as np

    k = n - g0.degree
    gbar = [c % p for c in g0.coeffs]
    shifts = np.array([[0] * i + gbar + [0] * (k - 1 - i) for i in range(k)], dtype=np.int64)
    messages = np.indices([p] * k).reshape(k, -1).T
    weights = (messages @ shifts % p != 0).sum(axis=1)
    return int(weights[1:].min())


def hamming_pairs(pairs):
    return sum(1 for a, b in pairs if a or b)


def lee_pairs(pairs):
    table = (0, 1, 2, 1)
    return sum(table[b % 4] + table[(a + b) % 4] for a, b in pairs)


def span_by_rotation(code):
    """A code as a Z_q-span of its rotated generator rows: the route that
    ideal_span_mod at f = x^n - 1 replaced in CyclicCode.span()."""
    return ZqSpan.from_rows(_code_vectors(code), code.params.p, code.params.s, 2 * code.n)


def root_exponents_by_evaluation(f, n, params):
    """The k < n with f(zeta^k) = 0, by Horner evaluation in the Galois ring."""
    ctx, zeta = nth_root_of_unity(n, params)
    roots = set()
    acc = ctx.one()
    for k in range(n):
        if eval_at(f, acc, ctx).is_zero():
            roots.add(k)
        acc = acc * zeta
    return frozenset(roots)


def bch_by_evaluation(g, n, params):
    """(b, delta, root_exponents) of the BCH certificate of g, with the roots
    found by evaluation."""
    roots = root_exponents_by_evaluation(g, n, params)
    is_root = [k in roots for k in range(n)]
    if all(is_root):
        return 0, n + 1, tuple(range(n))
    best_len, best_b = 0, 0
    for b in range(n):
        if is_root[b] and is_root[b - 1]:
            continue  # not the start of a run
        length = 0
        while length < n and is_root[(b + length) % n]:
            length += 1
        if length > best_len:
            best_len, best_b = length, b
    if best_len == 0:
        return 0, 1, ()
    return best_b, best_len + 1, tuple((best_b + i) % n for i in range(best_len))


def gr_span_by_multiplication(ctx, gens):
    """The ideal generated by GrElem `gens` as a Z_q-span inside Z_q^{2m}
    (a-coordinates first), from rows alpha^k * g and u * alpha^k * g with
    alpha^k * g computed by GrElem multiplication."""
    m = ctx.m
    alpha = ctx.from_rpoly(RPoly.make(ctx.params, [(0, 0), (1, 0)])) if m > 1 else ctx.one()
    rows = []
    for g in gens:
        acc = g
        for _ in range(m):
            a_part = [a for a, _ in acc.pairs]
            rows.append(a_part + [b for _, b in acc.pairs])
            rows.append([0] * m + a_part)  # u * (a + bu) = a u
            acc = acc * alpha
    return ZqSpan.from_rows(rows, ctx.params.p, ctx.params.s, 2 * m)


def fp_xgcd(f: ZqPoly, g: ZqPoly) -> tuple[ZqPoly, ZqPoly, ZqPoly]:
    """(d, a, b) with a*f + b*g = d, the monic gcd of f and g over F_p (s = 1)
    and not both zero, by the extended Euclidean algorithm."""
    one, zero = ZqPoly.const(f.params, 1), ZqPoly.zero(f.params)
    r0, r1, a0, a1, b0, b1 = f, g, one, zero, zero, one
    while not r1.is_zero():
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        a0, a1 = a1, a0 - quo * a1
        b0, b1 = b1, b0 - quo * b1
    inv = pow(r0.leading(), -1, f.params.p)
    return r0 * inv, a0 * inv, b0 * inv


def _hensel_pair(target, gbar, hbar):
    """Lift a coprime factor pair of `target` mod p (ZqPolys over F_p) to an
    exact pair mod q.

    Quadratic iteration: the factorization and its Bezout witnesses are
    refined together, doubling precision each step.
    """
    params = target.params
    p, q = params.p, params.q
    d, abar, bbar = fp_xgcd(gbar, hbar)
    if d.degree != 0:
        raise PreconditionError("factor pair is not coprime mod p")
    G, H, A, B = (ZqPoly.make(params, f.coeffs) for f in (gbar, hbar, abar, bbar))
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


def hensel_lift(gbar: ZqPoly, params):
    """The monic lift of an irreducible gbar over F_p (nonzero constant term)
    that divides x^N - 1, N the order of gbar's roots, by Hensel lifting the
    split x^N - 1 = gbar * cofactor mod p."""
    root_order = order_of_x(gbar)
    target = xn_minus_1_zq(params, root_order)
    cofactor, rem = divmod(xn_minus_1_zq(gbar.params, root_order), gbar)
    assert rem.is_zero()
    if cofactor.degree == 0:
        return target
    return _hensel_pair(target, gbar, cofactor)[0]


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
