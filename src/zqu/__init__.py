"""Exact algebra and analysis of cyclic codes over R = Z_q + uZ_q (u^2 = 0)."""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .ring import (
    IdealDescriptor,
    RingParams,
    ideal_descriptors,
    make_ring,
    p_adic_digits,
    teichmuller_set,
)
from .poly import (
    Factorization,
    RPoly,
    ZqPoly,
    divmod_monic,
    factor_xn_minus_1,
    format_r_poly,
    format_zq_poly,
    is_basic_irreducible,
    is_basic_primitive,
    parse_r_poly,
    parse_zq_poly,
    r_poly_from_json,
    r_poly_to_json,
    teichmuller_lift,
    xn_minus_1,
)
from .galois import ideal_elements, unit_group_order
from .codes import (
    BchCertificate,
    CanonicalGenerators,
    CrtSystem,
    CyclicCode,
    bch_bound_of,
    build_crt,
    count_cyclic_codes,
    enumerate_cyclic_codes,
)

__version__ = "0.1.0"

# The metric names and the default word budget of a scan: the CLI parser
# reads them without loading `zqu.metrics`.
METRIC_HAMMING = "hamming"
METRIC_LEE = "lee"
METRIC_GRAY_HAMMING = "gray-hamming"
METRICS = (METRIC_HAMMING, METRIC_LEE, METRIC_GRAY_HAMMING)
DEFAULT_DISTANCE_BUDGET = 1 << 24


# Only `distance` and verify-paper scan, so no other command runs the body of
# `zqu.metrics`.  It still sits in sys.modules and on the package, as when it
# was imported eagerly: the first attribute read runs it, and the package
# serves the names it re-exports from it on first use.
_spec = find_spec(f"{__name__}.metrics")
_spec.loader = LazyLoader(_spec.loader)
metrics = module_from_spec(_spec)
sys.modules[_spec.name] = metrics
_spec.loader.exec_module(metrics)
_FROM_METRICS = frozenset({"DistanceReport", "min_distance"})


def __getattr__(name: str):
    if name in _FROM_METRICS:
        return getattr(metrics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
