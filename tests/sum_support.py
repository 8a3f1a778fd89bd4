"""Test support: the direct sum of two braid pairs.

A reducible input that the tests build from two catalog representations;
the package itself forms no direct sums.
"""

from loopbraid import linalg
from loopbraid.cyclotomic import common_field
from loopbraid.repcore import GroupKind, LBRep


def direct_sum(r1: LBRep, r2: LBRep) -> LBRep:
    """The B3 pair diag(A1, A2), diag(B1, B2), in one field."""
    (r1, r2), n = common_field(r1, r2)
    return LBRep(GroupKind.B3, *(
        linalg._block_diagonal([x.rows, y.rows], n) for x, y in ((r1.A, r2.A), (r1.B, r2.B))
    ))
