"""Test support: the Lagrange eigenprojectors of an operator of order three.

The reference that the tests use to split an S with S^3 = I into its 1-,
w- and w^2-eigenspaces; the package decides the same split through the
eigenspaces themselves (`extend.default_extension_params`).
"""

from loopbraid.cyclotomic import CycNum, omega
from loopbraid.errors import ConductorMismatch, NotOrderThree
from loopbraid.linalg import CMatrix


def eigenprojectors_order3(s: CMatrix) -> tuple[CMatrix, CMatrix, CMatrix]:
    """Lagrange projectors (P_1, P_w, P_w2) of an operator with S^3 = I.

    Requires the conductor to be divisible by 3 so that w lives in the
    field.  P_l = prod_{u != l} (S - u I)/(l - u); they are idempotent,
    mutually orthogonal and sum to the identity.
    """
    if s.conductor % 3 != 0:
        raise ConductorMismatch(
            "eigenprojectors need omega: promote S to a conductor divisible by 3"
        )
    ident = CMatrix.identity(s.dim, s.conductor)
    if s.matpow(3) != ident:
        raise NotOrderThree("S^3 != I")
    w = omega(s.conductor)
    w2 = w * w
    one = CycNum.one(s.conductor)
    s2 = s @ s
    # (S - wI)(S - w2 I) = S^2 + S + I and (1 - w)(1 - w2) = 3, etc.
    p1 = (s2 + s + ident).scalar_mul((3 * one).inv())
    pw = (s2 + w * s + w2 * ident).scalar_mul((3 * w2).inv())
    pw2 = (s2 + w2 * s + w * ident).scalar_mul((3 * w).inv())
    return p1, pw, pw2
