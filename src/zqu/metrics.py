"""Weights and exact minimum-distance search.

Hamming weight lives on R-words directly.  For q = 4 the map
phi(a + bu) = (b, a+b) sends words into Z_4^{2n} preserving Lee weight, and
the classical Gray map 0->00, 1->01, 2->11, 3->10 turns Lee weight into
binary Hamming weight.  All three metrics reduce to a per-coordinate lookup
on the (a, b) pair, which is what the scan kernel consumes.

This module is pure Python: numpy is loaded with `zqu.kernels` on the first
scan, so the algebra commands never pay for it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import DEFAULT_DISTANCE_BUDGET, METRIC_GRAY_HAMMING, METRIC_HAMMING, METRIC_LEE, METRICS
from .codes import CyclicCode
from .errors import (
    DistanceUndefinedError,
    GuardExceededError,
    PreconditionError,
    UnsupportedMetricError,
)
from .poly import RPoly, format_r_poly
from .ring import RingParams
from .value import Value

LEE_WEIGHT_Z4 = (0, 1, 2, 1)
GRAY_IMAGE_Z4 = ((0, 0), (0, 1), (1, 1), (1, 0))

# Largest q for which the scan builds its q*q weight table.
MAX_DISTANCE_Q = 1 << 10


class WordR(Value):
    """A length-n word over R, coordinates as (a, b) residue pairs."""

    __slots__ = ("params", "pairs")

    def __init__(self, params: RingParams, pairs: tuple[tuple[int, int], ...]):
        self.params, self.pairs = params, pairs

    @classmethod
    def from_rpoly(cls, poly: RPoly, n: int) -> "WordR":
        if poly.degree >= n:
            poly = poly.reduce_cyclic(n)
        return cls(poly.params, tuple(poly[i] for i in range(n)))

    def to_rpoly(self) -> RPoly:
        return RPoly.make(self.params, self.pairs)

    def __len__(self):
        return len(self.pairs)


def hamming_weight(word: WordR) -> int:
    return sum(1 for a, b in word.pairs if a or b)


def phi_map(word: WordR) -> tuple[int, ...]:
    """Coordinatewise (b, a+b) into Z_4^{2n}, pairs interleaved in place."""
    if word.params.q != 4:
        raise UnsupportedMetricError("phi is defined over Z4 + uZ4 only")
    out = []
    for a, b in word.pairs:
        out.append(b)
        out.append((a + b) % 4)
    return tuple(out)


def lee_weight_z4(v: Sequence[int]) -> int:
    return sum(LEE_WEIGHT_Z4[c % 4] for c in v)


def gray_map(v: Sequence[int]) -> tuple[int, ...]:
    out = []
    for c in v:
        out.extend(GRAY_IMAGE_Z4[c % 4])
    return tuple(out)


def lee_weight(word: WordR) -> int:
    return lee_weight_z4(phi_map(word))


def gray_hamming_weight(word: WordR) -> int:
    return sum(gray_map(phi_map(word)))


def weight_of(word: WordR, metric: str) -> int:
    if metric == METRIC_HAMMING:
        return hamming_weight(word)
    if metric == METRIC_LEE:
        return lee_weight(word)
    if metric == METRIC_GRAY_HAMMING:
        return gray_hamming_weight(word)
    raise UnsupportedMetricError(f"unknown metric {metric!r}")


def weight_table(metric: str, params: RingParams) -> tuple[int, ...]:
    """Per-coordinate weight of a + bu, indexed by a*q + b."""
    q = params.q
    if q > MAX_DISTANCE_Q:
        raise GuardExceededError(f"q = {q} exceeds the distance-table guard {MAX_DISTANCE_Q}")
    if metric == METRIC_HAMMING:
        # up to 2^20 entries: a one-pair WordR each would cost seconds
        return (0,) + (1,) * (q * q - 1)
    if metric not in METRICS:
        raise UnsupportedMetricError(f"unknown metric {metric!r}")
    if q != 4:
        raise UnsupportedMetricError(f"{metric} requires q = 4, got q = {q}")
    # Lee weight of phi(a + bu) = (b, a + b), which the Gray map preserves
    return tuple(LEE_WEIGHT_Z4[b] + LEE_WEIGHT_Z4[(a + b) % 4] for a in range(4) for b in range(4))


class DistanceReport(Value):
    """`exhaustive`: every nonzero word was scanned.  `exact`: the value is
    the minimum, because the scan was exhaustive or the value meets the
    floor it was given, a proven lower bound on every nonzero word."""

    __slots__ = ("metric", "value", "witness", "exhaustive", "words_scanned", "exact")

    def __init__(self, metric: str, value: int, witness: WordR, exhaustive: bool,
                 words_scanned: int, exact: bool):
        self.metric, self.value, self.witness = metric, value, witness
        self.exhaustive, self.words_scanned, self.exact = exhaustive, words_scanned, exact

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "value": self.value,
            "witness": format_r_poly(self.witness.to_rpoly()),
            "exhaustive": self.exhaustive,
            "words_scanned": self.words_scanned,
            "exact": self.exact,
        }


def min_distance(code: CyclicCode, metric: str = METRIC_HAMMING,
                 budget: Optional[int] = None, threads: int = 1) -> DistanceReport:
    """Exact minimum weight by scanning every nonzero codeword once (the span
    basis enumeration is bijective); degrades to a budget-limited scan with
    exhaustive=False when the code is larger than the budget, whose value is
    still exact when it meets delta below, and otherwise an upper bound.

    The scan ends at the first word weighing at most delta =
    `code.bch_floor().delta`, which no nonzero word undercuts in any of the
    three metrics: d_H(C) >= delta, and each table weighs every nonzero
    coordinate at least 1.  No later word is lighter, and the words past it
    count as scanned, so the report is the one weighing every word gives.
    A multiple of one Howell row that weighs delta certifies the value at
    once; the scan then weighs only the words before it, for an earlier
    witness.

    `threads` is accepted and must be >= 1, but it has no effect: the scan
    is one serial kernel call, which beat every thread split measured."""
    if threads < 1:
        raise PreconditionError("threads must be >= 1")
    return _scan_distance(code, metric, budget, None)


def _scan_distance(code: CyclicCode, metric: str, budget: Optional[int],
                   floor: Optional[int]) -> DistanceReport:
    """`min_distance` with the scan's floor given: None takes the code's BCH
    floor, and 0 weighs or bounds every word, as the oracles that check the
    floor must."""
    if metric not in METRICS:
        raise UnsupportedMetricError(f"unknown metric {metric!r}")
    if budget is None:
        budget = DEFAULT_DISTANCE_BUDGET
    if budget < 1:
        raise PreconditionError("budget must be >= 1")
    table = weight_table(metric, code.params)
    span = code.span()
    total = span.size() - 1
    if total == 0:
        raise DistanceUndefinedError("the zero code has no nonzero codeword")
    if floor is None:
        floor = code.bch_floor().delta
    basis, ranges = span.enumeration_basis()
    exhaustive = total <= budget
    stop = total + 1 if exhaustive else budget + 1
    q, n = code.params.q, code.n

    from . import kernels

    best, idx, scanned = kernels.min_weight_scan(basis, ranges, table, q, n, stop, floor)
    vec = kernels.word_at_index(basis, ranges, q, idx)
    witness = WordR(code.params, tuple((int(vec[i]), int(vec[n + i])) for i in range(n)))
    return DistanceReport(metric, int(best), witness, exhaustive, scanned,
                          exhaustive or best == floor)
