"""Exact algebra and analysis of cyclic codes over R = Z_q + uZ_q (u^2 = 0)."""

from .ring import (
    IdealDescriptor,
    RingElem,
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
    coprime_with_witness,
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
from .metrics import (
    DistanceReport,
    WordR,
    gray_map,
    hamming_weight,
    lee_weight_z4,
    min_distance,
    phi_map,
)

__version__ = "0.1.0"
