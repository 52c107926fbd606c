"""Spans around zqu's public entry points, recorded from outside the package.

`installed(tracer)` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, item id, counters) in
memory, and restores the originals on exit.  A module-level function is
replaced under every name that refers to it in any loaded zqu module, since
the modules import each other's functions by name.  `layer_metrics` turns the
spans into the per-layer figures listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

# (module, attribute, span name) for module-level functions.
FUNCTIONS = [
    ("zqu.poly", "factor_xn_minus_1", "poly.factor"),
    ("zqu.galois", "gr_ideal_span", "galois.census_span"),
    ("zqu.galois", "nth_root_of_unity", "galois.root_of_unity"),
    ("zqu.codes", "build_crt", "codes.crt"),
    ("zqu.codes", "bch_bound_of", "codes.bch"),
    ("zqu.metrics", "min_distance", "metrics.min_distance"),
    ("zqu.cli", "main", "cli.main"),
]

# CyclicCode methods.  `fingerprint` is traced only to count the candidates
# that the freeness search compares.
METHODS = [
    ("components", "codes.components"),
    ("canonical", "codes.canonical"),
    ("is_free", "codes.is_free"),
    ("to_descriptor", "codes.descriptor"),
    ("fingerprint", "codes.fingerprint"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[int]
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.item: Optional[int] = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, 0.0, parent, self.item, counts)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append(Span(name, start, end, None, self.item))

    def extend(self, spans: list[dict], item: int) -> None:
        """Append spans written by another process, re-basing parent indices."""
        base = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append(Span(s["name"], s["start"], s["end"], parent, item, s["counts"]))

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_scan(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(rows, ranges, table, q, n, start, stop, *args, **kwargs):
        with tracer.span("kernels.scan") as span:
            best, idx, scanned = fn(rows, ranges, table, q, n, start, stop, *args, **kwargs)
            # first_best: words scanned up to and including the first word of minimum weight
            span.counts.update(words=scanned, n=n, first_best=idx - start + 1 if scanned else 0)
            return best, idx, scanned

    return wrapper


def _wrap_from_rows(tracer: Tracer, fn):
    def from_rows(cls, rows, *args, **kwargs):
        rows = list(rows)
        with tracer.span("howell.from_rows", rows_in=len(rows)):
            return fn(cls, rows, *args, **kwargs)

    return classmethod(from_rows)


@contextmanager
def installed(tracer: Tracer):
    """Trace zqu's entry points while the block runs."""
    import zqu.cli  # noqa: F401  (loads every module that holds a traced name)
    from zqu import kernels
    from zqu.codes import CyclicCode
    from zqu.howell import ZqSpan

    modules = [m for name, m in list(sys.modules.items()) if name == "zqu" or name.startswith("zqu.")]
    undo = []

    def replace_everywhere(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    # An entry point that a later zqu no longer has is skipped; its figures read 0.
    for module_name, attr, span_name in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr, None)
        if original is not None:
            replace_everywhere(original, _wrap(tracer, span_name, original))
    replace_everywhere(kernels.min_weight_scan, _wrap_scan(tracer, kernels.min_weight_scan))
    for attr, span_name in METHODS:
        original = vars(CyclicCode).get(attr)
        if original is not None:
            undo.append((CyclicCode, attr, original))
            setattr(CyclicCode, attr, _wrap(tracer, span_name, original))
    original = vars(ZqSpan)["from_rows"]
    undo.append((ZqSpan, "from_rows", original))
    ZqSpan.from_rows = _wrap_from_rows(tracer, original.__func__)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# Inclusive time per item, per traced function: (metric, span name).
_INCLUSIVE = [
    ("howell.span_s", "howell.from_rows"),
    ("codes.is_free_s", "codes.is_free"),
    ("codes.components_s", "codes.components"),
    ("codes.canonical_s", "codes.canonical"),
    ("codes.descriptor_s", "codes.descriptor"),
    ("codes.crt_s", "codes.crt"),
    ("codes.bch_s", "codes.bch"),
    ("galois.census_s", "galois.census_span"),
    ("galois.root_of_unity_s", "galois.root_of_unity"),
    ("poly.factor_s", "poly.factor"),
    ("kernels.scan_s", "kernels.scan"),
    ("cli.import_s", "cli.import"),
]

# Self time per item of a layer: its spans minus the time their child spans cover.
_SELF_LAYERS = ["poly", "galois", "howell", "codes", "kernels"]


def layer_metrics(spans: list[Span], items: int) -> dict[str, float]:
    """Per-layer figures, per traced item unless the name says otherwise."""
    items = max(items, 1)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def nested_in_same_name(i: int) -> bool:
        name, parent = spans[i].name, spans[i].parent
        while parent is not None:
            if spans[parent].name == name:
                return True
            parent = spans[parent].parent
        return False

    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    count: dict[str, int] = {}
    for i, s in enumerate(spans):
        count[s.name] = count.get(s.name, 0) + 1
        self_time[s.name] = self_time.get(s.name, 0.0) + (s.end - s.start) - child_time[i]
        if not nested_in_same_name(i):
            inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)

    def counter(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    free_searches = [i for i, s in enumerate(spans) if s.name == "codes.is_free"]
    searched = set(free_searches)
    # is_free fingerprints its own code first, then one candidate per divisor tried
    compared = sum(1 for s in spans if s.name == "codes.fingerprint" and s.parent in searched)
    words = counter("kernels.scan", "words")
    scan_s = inclusive.get("kernels.scan", 0.0)
    spans_built = count.get("howell.from_rows", 0)

    out = {metric: inclusive.get(name, 0.0) / items for metric, name in _INCLUSIVE}
    out.update({
        "howell.spans_built": spans_built,
        "howell.spans_per_item": spans_built / items,
        "howell.rows_in": counter("howell.from_rows", "rows_in") / items,
        "codes.is_free_candidates": (compared - len(free_searches)) / items,
        "galois.census_spans": count.get("galois.census_span", 0) / items,
        "kernels.words_scanned": words / items,
        "kernels.words_per_s": words / scan_s if scan_s else 0.0,
        "kernels.lookups": sum(s.counts.get("words", 0) * s.counts.get("n", 0)
                               for s in spans if s.name == "kernels.scan") / items,
        "kernels.useful_ratio": counter("kernels.scan", "first_best") / words if words else 0.0,
        "metrics.distance_self_s": self_time.get("metrics.min_distance", 0.0) / items,
        "cli.main_self_s": self_time.get("cli.main", 0.0) / items,
    })
    for layer in _SELF_LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for name, t in self_time.items() if name.split(".")[0] == layer) / items
    return out
