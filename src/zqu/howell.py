"""Canonical row bases for Z_q-submodules of Z_q^N, q = p^s.

Z_q is a chain ring, so every submodule has a Howell basis: a staircase of
rows whose pivots are exact p-powers, closed under the annihilator multiples
p^{s-e} * row.  The fully reduced form is unique per submodule, which makes
it usable as an element-set fingerprint.  It also yields exact span sizes,
membership tests, and a bijective mixed-radix enumeration of the span.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError
from .value import Value


def pval(x: int, p: int, s: int) -> int:
    """p-adic valuation of x mod p^s (the value s stands for zero)."""
    if x == 0:
        return s
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _check_length(vec: Sequence[int], ncols: int) -> None:
    if len(vec) != ncols:
        raise PreconditionError(f"vector of length {len(vec)} in a span of {ncols} columns")


class ZqSpan(Value):
    """Immutable Howell basis of the Z_q-span of a set of integer rows."""

    __slots__ = ("p", "s", "ncols", "rows")

    def __init__(self, p: int, s: int, ncols: int,
                 rows: tuple[tuple[int, int, tuple[int, ...]], ...]):  # (pivot col, val, row)
        self.p, self.s, self.ncols, self.rows = p, s, ncols, rows

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], p: int, s: int, ncols: int) -> "ZqSpan":
        """Reduced Howell basis of the span of `rows`, in one sweep over the
        columns.

        At column c the live row of least valuation e there becomes the pivot,
        scaled to exactly p^e, and clears column c in the other live rows.  Its
        annihilator multiple p^(s-e) * pivot vanishes at c and joins the live
        rows, so every span element that is zero before column c stays in the
        span of the pivots at c and later: the Howell property holds without a
        closure pass.  The same step reduces column c of the earlier pivots
        mod p^e, which lands on the unique fully reduced form.
        """
        q = p**s
        live = []
        for row in rows:
            _check_length(row, ncols)
            live.append([x % q for x in row])
        pivots = []
        for c in range(ncols):
            best, e = -1, s
            for k, v in enumerate(live):
                if v[c]:
                    ev = pval(v[c], p, s)
                    if ev < e:
                        best, e = k, ev
                        if not e:
                            break
            if best < 0:
                continue
            pivot = live.pop(best)
            pe = p**e
            unit_inv = pow(pivot[c] // pe, -1, q)
            tail = [(unit_inv * x) % q for x in pivot[c:]]
            pivot[c:] = tail
            # p^e divides column c of every live row, which clears there; an
            # earlier pivot keeps its entry there mod p^e
            for v in itertools.chain(live, [row for _, _, row in pivots]):
                m = v[c] // pe
                if m:
                    v[c:] = [(x - m * y) % q for x, y in zip(v[c:], tail)]
            if e:
                live.append([(x * p ** (s - e)) % q for x in pivot])
            pivots.append((c, e, pivot))
        # From a list, not a generator: a tuple grown from an iterator is
        # resized, and freeing it then fills CPython's tuple free lists.
        return cls(p, s, ncols, tuple([(c, e, tuple(row)) for c, e, row in pivots]))

    @property
    def q(self) -> int:
        return self.p**self.s

    def size_exponent(self) -> int:
        """log_p of the number of elements in the span."""
        return sum(self.s - e for _, e, _ in self.rows)

    def size(self) -> int:
        return self.p ** self.size_exponent()

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        _check_length(vec, self.ncols)
        q = self.q
        v = [x % q for x in vec]
        for c, e, row in self.rows:
            x = v[c]
            if x and pval(x, self.p, self.s) >= e:
                m = x // self.p**e
                for i in range(c, self.ncols):
                    v[i] = (v[i] - m * row[i]) % q
        return tuple(v)

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def fingerprint(self) -> tuple:
        return (self.p, self.s, self.ncols, self.rows)

    def enumeration_basis(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """Rows and coefficient ranges giving each span element exactly once.

        The span is { sum t_i * row_i : 0 <= t_i < range_i } with distinct
        tuples giving distinct elements.
        """
        basis = [row for _, _, row in self.rows]
        ranges = [self.p ** (self.s - e) for _, e, _ in self.rows]
        return basis, ranges

    def elements(self) -> Iterator[tuple[int, ...]]:
        """Yield every span element once, in no specified order (the caller
        is responsible for size guards)."""
        q = self.q
        basis, ranges = self.enumeration_basis()
        for coeffs in itertools.product(*(range(r) for r in ranges)):
            yield tuple(sum(t * row[j] for t, row in zip(coeffs, basis)) % q
                        for j in range(self.ncols))
