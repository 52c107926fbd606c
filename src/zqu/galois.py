"""Galois extensions GR(R, m) = R[x]/(f(x)) for basic irreducible f.

Elements are residue classes represented by coefficient pairs of degree < m.
Provides the unit-group order, the one ideal-span builder of R[x]/(f) (which
serves GR(R, m) for every m, the base ring R at m = 1, the component
readings of cyclic codes and, at f = x^n - 1, the codes themselves), and
basic primitive n-th roots of unity for distance-bound work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import config, fppoly
from .errors import GuardExceededError, LengthNotCoprimeError, PreconditionError
from .howell import ZqSpan
from .poly import (RPoly, divmod_monic, is_basic_irreducible, is_basic_primitive, teichmuller_lift,
                   xn_minus_1)
from .ring import IdealDescriptor, RingElem, RingParams, reading_generators


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

    def __str__(self):
        from .poly import format_r_poly

        return format_r_poly(self.to_rpoly()).replace("x", "α")


def build_ctx(f: RPoly) -> GaloisRingCtx:
    """Context for GR(R, m) = R[x]/(f); f must be monic basic irreducible."""
    if not f.is_monic():
        raise PreconditionError("modulus must be monic")
    if not is_basic_irreducible(f):
        raise PreconditionError("modulus residue is reducible over F_p")
    return GaloisRingCtx(f.params, f, f.degree, is_basic_primitive(f))


def unit_group_order(ctx: GaloisRingCtx) -> int:
    p, s, m = ctx.params.p, ctx.params.s, ctx.m
    return (p**m - 1) * p ** ((2 * s - 1) * m)


def ideal_span_mod(gens: Sequence[RPoly], f: RPoly, with_u: bool = True) -> ZqSpan:
    """The ideal that `gens` (reduced mod f here) generate in R[x]/(f), f
    monic of degree m, as a Z_q-span inside Z_q^{2m} (a-coordinates first,
    then u-coordinates).  With `with_u` false, only the Z_q[x]-span.

    Multiplier rows x^k * g and u * x^k * g for k < m suffice: any scalar
    sum_k (a_k + b_k u) x^k acts through them Z_q-linearly.  Each x^k * g
    comes from the previous one by a shift and one subtraction of f.
    """
    params, m = f.params, f.degree
    q = params.q
    tail = [f[k] for k in range(m)]
    rows = []
    for g in gens:
        if g.degree >= m:
            g = divmod_monic(g, f)[1]
        acc = [g[k] for k in range(m)]
        for _ in range(m):
            a_part = [a for a, _ in acc]
            rows.append(a_part + [b for _, b in acc])
            if with_u:
                rows.append([0] * m + a_part)
            ta, tb = acc[-1]  # x^m = -(f_0 + ... + f_{m-1} x^{m-1})
            acc = [(0, 0)] + acc[:-1]
            acc = [((a - ta * fa) % q, (b - ta * fb - tb * fa) % q)
                   for (a, b), (fa, fb) in zip(acc, tail)]
    return ZqSpan.from_rows(rows, params.p, params.s, 2 * m)


def gr_ideal_span(desc: IdealDescriptor, ctx: GaloisRingCtx) -> ZqSpan:
    """The span of a census ideal of GR(R, m), from its reading's generators."""
    params = ctx.params
    gens = reading_generators(desc.reading(params.s, ctx.m), params)
    return ideal_span_mod([RPoly.make(params, g) for g in gens], ctx.modulus)


def gr_ideal_elements(desc: IdealDescriptor, ctx: GaloisRingCtx) -> frozenset[GrElem]:
    guard = config.env_int("ZQU_MAX_CENSUS_SIZE", config.MAX_CENSUS_SIZE)
    if ctx.size > guard:
        raise GuardExceededError(f"|GR(R, m)| = {ctx.size} exceeds the census guard {guard}")
    span = gr_ideal_span(desc, ctx)
    m = ctx.m
    out = set()
    for vec in span.elements():
        pairs = tuple((vec[i], vec[m + i]) for i in range(m))
        out.add(GrElem(ctx, pairs))
    return frozenset(out)


def ideal_elements(desc: IdealDescriptor, params: RingParams) -> frozenset[RingElem]:
    """Explicit element set of an ideal of R itself: the m = 1 case, over the
    degree-1 factor x - 1 of x^1 - 1.  Guarded to desk scale."""
    guard = config.env_int("ZQU_MAX_ORACLE_Q", config.MAX_ORACLE_Q)
    if params.q > guard:
        raise GuardExceededError(f"q = {params.q} exceeds the enumeration guard {guard}")
    span = gr_ideal_span(desc, build_ctx(xn_minus_1(params, 1)))
    return frozenset(RingElem(params, a, b) for a, b in span.elements())


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
    m = fppoly.multiplicative_order(params.p, n)
    pi = fppoly.smallest_primitive(params.p, m)
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
