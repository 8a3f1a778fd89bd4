"""Test support: every standard extension of a braid pair, and the paper's
four formulations of the mixed relation L2.

References that the tests check the package against; the package builds
one extension per command (`extend.build_standard_extension`) and checks
L2 through `repcore.RELATION_WORDS`.
"""

from loopbraid.extend import (
    ExtensionCertificate,
    build_standard_extension,
    standard_k_candidates,
)
from loopbraid.linalg import CMatrix
from loopbraid.repcore import LBRep


def standard_extensions(a: CMatrix, b: CMatrix) -> list[tuple[LBRep, ExtensionCertificate]]:
    """One verified representation per in-field candidate k."""
    search = standard_k_candidates(a, b)
    return [build_standard_extension(a, b, k) for k, _ in search.candidates]


def l2_equivalence(rep: LBRep) -> dict[str, bool]:
    """The four equivalent formulations of the mixed relation L2.

    (a) AB S1 = S2 AB, (b) S2 commutes with AB S^-1, (c) S1 commutes with
    (AB)^-1 S, (d) AB S = S2 AB S2.  For involutive braid-related S1, S2
    the four truth values coincide.
    """
    a, b, s1, s2 = rep.A, rep.B, rep.S1, rep.S2
    ab = a @ b
    s = s1 @ s2
    abinv = ab.inverse()
    x = ab @ s.inverse()
    y = abinv @ s
    return {
        "a": ab @ s1 == s2 @ ab,
        "b": s2 @ x == x @ s2,
        "c": s1 @ y == y @ s1,
        "d": ab @ s == s2 @ ab @ s2,
    }
