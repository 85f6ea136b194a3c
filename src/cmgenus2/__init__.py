"""Parameter generation for genus-2 hyperelliptic Jacobians over quartic CM fields.

The pipeline: validate a field (D, a, b), search for an element omega of
the quartic order whose complex norm p is prime, derive the Frobenius
characteristic polynomial and the Jacobian group order N = P(1), then
filter and enumerate the group structures (n1, n2, n3, n4) compatible
with the divisibility and congruence constraints, certifying a guaranteed
cyclic subgroup order.  A brute-force Jacobian oracle over tiny prime
fields validates the structural assumptions empirically.
"""

from .cmfield import (
    Basis,
    CMFieldParams,
    FieldCase,
    ValidatedField,
    basis_convert,
    compute_Q,
    is_primitive,
    validate,
)
from .frobenius import (
    FrobeniusData,
    char_poly,
    hasse_weil_check,
    twist_order,
)
from .integerkit import Factorization, divisors, factorize, is_probable_prime
from .primegen import (
    GenConfig,
    OmegaCertificate,
    make_certificate,
    negate,
    search_prime,
)
from .quartic import QuarticInt, char_poly_oracle, conj_complex, mul, norm_residual
from .structure import (
    Analysis,
    StructureCandidate,
    StructureReport,
    analyze,
    enumerate_structures,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "Basis",
    "CMFieldParams",
    "FieldCase",
    "Factorization",
    "FrobeniusData",
    "GenConfig",
    "OmegaCertificate",
    "QuarticInt",
    "StructureCandidate",
    "StructureReport",
    "analyze",
    "basis_convert",
    "char_poly",
    "char_poly_oracle",
    "compute_Q",
    "conj_complex",
    "divisors",
    "enumerate_structures",
    "factorize",
    "hasse_weil_check",
    "is_primitive",
    "is_probable_prime",
    "make_certificate",
    "mul",
    "negate",
    "norm_residual",
    "search_prime",
    "twist_order",
    "validate",
]
