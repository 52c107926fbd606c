"""Ideals of R[x]/(f) as Z_q-spans, and the unit-group order of GR(R, m).

`ideal_span_mod` is the one ideal-span builder of R[x]/(f): it serves the
Galois extensions GR(R, m) = R[x]/(f) for basic irreducible f of every degree
m, the base ring R at f = x - 1, the component readings of cyclic codes and,
at f = x^n - 1, the codes themselves.  `gr_ideal_span` and `ideal_elements`
give the census ideals as spans and, over R, as explicit element sets.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import GuardExceededError
from .howell import ZqSpan
from .poly import RPoly, times_x_mod, xn_minus_1
from .ring import IdealDescriptor, RingParams, reading_generators

# Largest q for which `ideal_elements` lists an ideal of R element by element.
MAX_ORACLE_Q = 1 << 10


def unit_group_order(p: int, s: int, m: int) -> int:
    """|GR(R, m)^*| = (p^m - 1) p^((2s - 1) m): an element is a unit iff its
    residue in F_{p^m} is nonzero."""
    return (p**m - 1) * p ** ((2 * s - 1) * m)


def ideal_span_mod(gens: Sequence[RPoly], f: RPoly, with_u: bool = True,
                   shifts: Optional[Sequence[int]] = None) -> ZqSpan:
    """The ideal that `gens` (reduced mod f here) generate in R[x]/(f), f
    monic of degree m, as a Z_q-span inside Z_q^{2m} (a-coordinates first,
    then u-coordinates).  With `with_u` false, only the Z_q[x]-span.

    Multiplier rows x^k * g and u * x^k * g for k < m suffice: any scalar
    sum_k (a_k + b_k u) x^k acts through them Z_q-linearly.  Each x^k * g
    comes from the previous one by a shift and one subtraction of f.

    `shifts`, if given, holds one d_g <= m per generator, and k < d_g
    suffices.  The caller takes d_g = sum of deg f_l over the f_l that do
    not divide g, for pairwise coprime monic f_l of Z_q[x] whose product is
    f.  Their product mu_g is monic of degree d_g in Z_q[x] and, by the CRT,
    mu_g * g = 0 mod f.  So x^{d_g} * g = (x^{d_g} - mu_g) * g is a
    Z_q-combination of the lower shifts, and by induction so is every later
    shift and its u-multiple, in both closures.
    """
    params, m = f.params, f.degree
    q = params.q
    fa, fb = f.a.coeffs[:m], (f.b.coeffs + (0,) * m)[:m]
    rows = []
    for g, d in zip(gens, [m] * len(gens) if shifts is None else shifts):
        if g.degree >= m:
            g = g % f
        a = list(g.a.coeffs) + [0] * (m - len(g.a.coeffs))
        b = list(g.b.coeffs) + [0] * (m - len(g.b.coeffs))
        # u * (a + u*b) = u*a is zero when a is, and a stays zero at every shift
        u_rows = with_u and any(a)
        for _ in range(d):
            rows.append(a + b)
            if u_rows:
                rows.append([0] * m + a)
            a, b = times_x_mod(a, b, fa, fb, q)
    return ZqSpan.from_rows(rows, params.p, params.s, 2 * m)


def gr_ideal_span(desc: IdealDescriptor, modulus: RPoly) -> ZqSpan:
    """The span of a census ideal of GR(R, m) = R[x]/(modulus), from its
    reading's generators."""
    params = modulus.params
    gens = reading_generators(desc.reading(params.s, modulus.degree), params)
    return ideal_span_mod([RPoly.make(params, g) for g in gens], modulus)


def ideal_elements(desc: IdealDescriptor, params: RingParams) -> frozenset[tuple[int, int]]:
    """Explicit element set of an ideal of R itself, as (a, b) pairs: the
    m = 1 case, over the degree-1 factor x - 1 of x^1 - 1.  Guarded to desk
    scale."""
    if params.q > MAX_ORACLE_Q:
        raise GuardExceededError(f"q = {params.q} exceeds the enumeration guard {MAX_ORACLE_Q}")
    return frozenset(gr_ideal_span(desc, xn_minus_1(params, 1)).elements())
