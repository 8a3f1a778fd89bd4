"""Exact-arithmetic toolkit for loop braid group representations.

Construct B3 matrix representations over cyclotomic fields, decide
whether and how they extend to the three-component loop braid group,
build the standard extensions, and certify non-extendability.
"""

__version__ = "0.1.0"

from .cyclotomic import (
    CycNum,
    Rational,
    make_root_of_unity,
    nth_root_in_field,
    omega,
)
from .linalg import (
    CMatrix,
    algebra_dimension,
    is_proportional,
    solve_linear,
)
from .repcore import (
    GroupKind,
    LBRep,
    RelationReport,
    is_irreducible,
    restrict,
    tensor_product,
    verify,
)

__all__ = [
    "CycNum",
    "Rational",
    "make_root_of_unity",
    "nth_root_in_field",
    "omega",
    "CMatrix",
    "algebra_dimension",
    "is_proportional",
    "solve_linear",
    "GroupKind",
    "LBRep",
    "RelationReport",
    "is_irreducible",
    "restrict",
    "tensor_product",
    "verify",
    "__version__",
]
