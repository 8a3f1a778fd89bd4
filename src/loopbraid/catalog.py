"""Constructors for the explicit representation families.

Every constructor returns an LBRep over an automatically chosen cyclotomic
field: `common_field` joins the parameters' conductors (with 3 where a
primitive cube root of unity is structurally required), and all promotion
happens here at construction time, never lazily.

Parameters may be ints, Fractions or CycNum values.  Each constructor is
written as its formula: 0, 1 and -1 are plain integers, which `CMatrix` and
`CycNum` arithmetic lift into the field.  In B3, s2 = (s1 s2) s1 (s1 s2)^-1,
so B is conjugate to A, and in every braid pair here by a monomial P (a
permutation with scales): each braid constructor states its A and its P,
and the one rule `_conjugate` derives B = P A P^-1.
"""

from __future__ import annotations

import math

from .cyclotomic import common_field, make_root_of_unity, omega
from .errors import (
    ConstraintViolated,
    InvalidBlockCombination,
    NotASquareRoot,
    ZeroEigenvalue,
    ZeroParameter,
)
from .extend import build_standard_extension
from .linalg import CMatrix, _block_diagonal
from .repcore import GroupKind, LBRep


def _require_nonzero(*vals, error=ZeroEigenvalue, message="eigenvalue parameters must be nonzero"):
    if any(v.is_zero for v in vals):
        raise error(message)


def _conjugate(a: CMatrix, scale, perm=None) -> CMatrix:
    """P A P^-1 for the monomial P with P[i][perm[i]] = scale[i]: entry
    (i, j) is scale[i] * A[perm[i]][perm[j]] / scale[j], the one rule by
    which every braid pair here derives its B from its A.

    With no perm, P reverses the basis and scale[i] is signed by (-1)^i.
    Each scale is inverted once, in the field, and a zero entry of A costs
    no product.
    """
    if perm is None:
        perm = range(a.dim - 1, -1, -1)
        scale = [-x if i % 2 else x for i, x in enumerate(scale)]
    scale, n = common_field(*scale, extra=a.conductor)
    inverse = [x.inv() for x in scale]
    return CMatrix._of(  # the entries are A's times scales, already in its field
        [
            [x and si * x * ti for x, ti in zip((a.rows[p][q] for q in perm), inverse)]
            for si, p in zip(scale, perm)
        ],
        n,
    )


def tw2(lam1, lam2, family: int = 2) -> LBRep:
    """The two 2-dimensional braid pairs (reducible family 1, irreducible 2).

    Family 1:  A = [[l1, l1], [0, l2]],  B = [[l1, -l2], [0, l2]]
               with -l1/l2 a primitive cube root of unity;
               B = P A P^-1 with P = diag(-l2, l1).
    Family 2:  A = [[l1, l1], [0, l2]],  B = [[l2, 0], [-l2, l1]]
               with l1^2 - l1*l2 + l2^2 != 0;
               B = P A P^-1 with P the reversal times diag(l1, -l2).
    """
    (l1, l2), n = common_field(lam1, lam2, extra=3 if family == 1 else 1)
    _require_nonzero(l1, l2)
    a = CMatrix([[l1, l1], [0, l2]], n)
    if family == 1:
        w = omega(n)
        ratio = -l1 / l2
        if ratio != w and ratio != w * w:
            raise ConstraintViolated(
                "family 1 requires -lambda1/lambda2 to be a primitive cube root of unity"
            )
        b = _conjugate(a, [-l2, l1], perm=range(2))
    elif family == 2:
        if (l1 * l1 - l1 * l2 + l2 * l2).is_zero:
            raise ConstraintViolated(
                "family 2 requires lambda1^2 - lambda1*lambda2 + lambda2^2 != 0"
            )
        b = _conjugate(a, [l1, l2])
    else:
        raise ConstraintViolated("family must be 1 or 2")
    return LBRep(target=GroupKind.B3, A=a, B=b)


def tw3(lam1, lam2, lam3) -> LBRep:
    """The 3-dimensional ordered-triangular pair with spectrum (l1, l2, l3);
    B[i][j] = (-1)^(i+j) A[2-i][2-j], A conjugated by the signed reversal."""
    (l1, l2, l3), n = common_field(lam1, lam2, lam3)
    _require_nonzero(l1, l2, l3)
    mix = l1 * l3 / l2 + l2
    a = CMatrix([[l1, mix, l2], [0, l2, l2], [0, 0, l3]], n)
    return LBRep(target=GroupKind.B3, A=a, B=_conjugate(a, [1] * 3))


def tw4(lams, gamma2) -> LBRep:
    """The 4-dimensional family; gamma2 is the square gamma^2 directly.

    Only even powers of gamma enter the entries, so the constructor takes
    gamma^2 as the primary datum subject to (gamma^2)^2 = l1*l2*l3*l4.
    B = P A P^-1 with P the reversal times diag(l4, -l3, r*l2, -r*l2*l3/l4),
    r = l2*l3/gamma^2.
    """
    vals, n = common_field(*lams, gamma2)
    l1, l2, l3, l4, g2 = vals
    _require_nonzero(l1, l2, l3, l4)
    if g2 * g2 != l1 * l2 * l3 * l4:
        raise ConstraintViolated("need gamma^4 = lambda1*lambda2*lambda3*lambda4")
    q = l1 * l4 / g2
    r = l2 * l3 / g2
    a = CMatrix(
        [
            [l1, (1 + q + q * q) * l2, (1 + q + q * q) * l3, l4],
            [0, l2, (1 + q) * l3, l4],
            [0, 0, l3, l4],
            [0, 0, 0, l4],
        ],
        n,
    )
    return LBRep(target=GroupKind.B3, A=a, B=_conjugate(a, [l4, l3, r * l2, r * l2 * l3 / l4]))


def tw5(lams, gamma) -> LBRep:
    """The 5-dimensional family; gamma is a fixed fifth root of the product.

    B[i][j] = (-1)^(i+j) A[4-i][4-j], A conjugated by the signed reversal.
    """
    vals, n = common_field(*lams, gamma)
    l1, l2, l3, l4, l5, g = vals
    _require_nonzero(l1, l2, l3, l4, l5)
    if g**5 != l1 * l2 * l3 * l4 * l5:
        raise ConstraintViolated("need gamma^5 = lambda1*...*lambda5")
    g2, g3 = g * g, g**3
    t15 = g3 / (l1 * l5)
    a = CMatrix(
        [
            [
                l1,
                (1 + g2 / (l2 * l4)) * (l2 + g3 / (l3 * l4)),
                (1 + l1 * l5 / g2) * (l3 + g + g2 / l3),
                (1 + l2 * l4 / g2) * (l3 + g3 / (l2 * l4)),
                t15,
            ],
            [0, l2, l3 + g + g2 / l3, l3 + g + t15, t15],
            [0, 0, l3, l3 + t15, t15],
            [0, 0, 0, l4, l4],
            [0, 0, 0, 0, l5],
        ],
        n,
    )
    return LBRep(target=GroupKind.B3, A=a, B=_conjugate(a, [1] * 5))


def binomial_pair(lams, c) -> tuple[CMatrix, CMatrix]:
    """The raw (d+1)-dimensional binomial braid pair in ordered triangular form.

    For 0 <= i, j <= d, with C the binomial coefficient:

        A[i][j] = C(j, i) * lambda_(d-j)
        B[i][j] = (-1)^(i+j) * C(d-j, d-i) * lambda_i

    that is, B = P A P^-1 with P the reversal times diag((-1)^i lambda_i),
    subject to lambda_i * lambda_(d-i) = c for all i.  Every lambda product
    in AB telescopes through that pairing, so AB is pure binomial data and
    cubes to (-1)^d c^3 I.
    """
    vals, n = common_field(*lams, c, extra=3)
    *ls, cc = vals
    d = len(ls) - 1
    if d < 1:
        raise ConstraintViolated("need at least two eigenvalue parameters")
    _require_nonzero(*ls)
    _require_nonzero(cc, error=ZeroParameter, message="c must be nonzero")
    for i in range(d + 1):
        if ls[i] * ls[d - i] != cc:
            raise ConstraintViolated(f"need lambda_{i} * lambda_{d - i} = c")
    a = CMatrix.build(d + 1, n, lambda i, j: math.comb(j, i) * ls[d - j] if i <= j else 0)
    return a, _conjugate(a, ls)


def binomial_rep(lams, c) -> LBRep:
    """The binomial pair together with its standard extension.

    S = ((-1)^d / c) AB satisfies S^3 = I with Tr(S) in {0, +-1}, so the
    extension scalar k = (-1)^d / c always lies in the working field.
    """
    a, b = binomial_pair(lams, c)
    (cc,), _ = common_field(c)
    return build_standard_extension(a, b, (-1) ** (a.dim - 1) / cc)[0]


def nonstandard_3d(lam1, lam2, z, sign: int = 1) -> LBRep:
    """The one-parameter symmetric family on tw3(l1, l2, -l2).

    S and the involution depend only on the free parameter z; the result
    degenerates to a standard extension exactly when z^3 = l1/l2.
    """
    if sign not in (1, -1):
        raise ZeroParameter("sign must be +1 or -1")
    (l1, l2, zz), n = common_field(lam1, lam2, z)
    base = tw3(l1, l2, -l2)
    _require_nonzero(zz, error=ZeroParameter, message="z must be nonzero")
    zi = zz.inv()
    s = CMatrix([[0, 0, zz], [0, zz, zz], [-zi * zi, (1 - zz**3) * zi * zi, -zz]], n)
    s1 = CMatrix([[1, zz - 1, zz], [0, zz, zz], [0, (1 - zz * zz) * zi, -zz]], n)
    if sign == -1:
        s1 = -s1
    s2 = s1 @ s  # S1^2 = I, so S2 = S1 S
    return LBRep(target=GroupKind.SLB3, A=base.A, B=base.B, S1=s1, S2=s2)


def counterexample6() -> LBRep:
    """The 6-dimensional irreducible pair over Z[w] with no extension.

    B = D A D with D = diag(1, 1, 1, -1, -1, -1).
    """
    w = make_root_of_unity(3, 1)
    w2 = w * w
    a = CMatrix(
        [
            [1, 1 - w, 1 - w2, w - 1, w2 - 1, w - 1],
            [w2 - 1, w2, 0, 1 - w2, 0, 0],
            [w2 - 1, w2 - 1, w2, 1 - w2, 1 - w2, 0],
            [0, w - 1, w2 - 1, -w, 1 - w2, 1 - w],
            [1 - w2, 1 - w2, 0, w2 - 1, -1, 0],
            [1 - w2, 1 - w2, 1 - w2, w2 - 1, w2 - 1, -1],
        ],
        3,
    )
    return LBRep(target=GroupKind.B3, A=a, B=_conjugate(a, [1, 1, 1, -1, -1, -1], perm=range(6)))


def v1_family(lam, x) -> LBRep:
    """Two-dimensional loop representations with S = I and A = B."""
    (l, xx), n = common_field(lam, x)
    _require_nonzero(l, message="lambda must be nonzero")
    a = CMatrix([[l, xx], [0, -l]], n)
    swap = CMatrix([[0, 1], [1, 0]], n)
    return LBRep(target=GroupKind.LB3, A=a, B=a, S1=swap, S2=swap)


def abeq_family(n_half: int, mu, sqrt_mu, sign: int = -1) -> LBRep:
    """The 2n-dimensional A = B families with S = mu^-1 w A^2 and V_1 = 0.

    A = diag(A1, A2) in n x n blocks, one `linalg._block_diagonal` of A1's
    blocks followed by A2's; A2's companion blocks carry mu*w and
    S2 swaps the two blocks.  The parity of n picks the blocks: for n odd
    A1 is sqrt(mu) then companion blocks, for n even sqrt(mu), companion
    blocks, -+sqrt(mu); A2 mirrors that parity.
    """
    if n_half < 1:
        raise InvalidBlockCombination("block size n must be >= 1")
    if n_half > 128:  # A would hold more than 2^16 entries
        raise InvalidBlockCombination("block size n must be <= 128")
    (m, sm), n = common_field(mu, sqrt_mu, extra=3)
    _require_nonzero(m, error=ZeroParameter, message="mu must be nonzero")
    if sm * sm != m:
        raise NotASquareRoot("sqrt_mu^2 != mu")
    if sign not in (1, -1):
        raise InvalidBlockCombination("sign must be +1 or -1")
    w = omega(n)

    def companion(top) -> list[list]:
        return [[0, top], [1, 0]]

    if n_half % 2 == 1:
        a1 = [[[sm]]] + [companion(m)] * ((n_half - 1) // 2)
        a2 = [companion(m * w)] * ((n_half - 1) // 2) + [[[sm * w * w]]]
    else:
        a1 = [[[sm]]] + [companion(m)] * ((n_half - 2) // 2) + [[[sign * sm]]]
        a2 = [companion(m * w)] * (n_half // 2)
    a = _block_diagonal(a1 + a2, n)
    s2 = CMatrix.build(2 * n_half, n, lambda i, j: int(abs(i - j) == n_half))
    s = (a @ a).scalar_mul(w / m)
    s1 = s @ s2
    return LBRep(target=GroupKind.LB3, A=a, B=a, S1=s1, S2=s2)


def lkb3(q, t) -> LBRep:
    """The Lawrence-Krammer-Bigelow pair for three strands.

    The paper's degenerate locus is t q^2 = -1, t q = 1, q = 1; the pair
    is built there too.  q = 0 or t = 0 is refused (ZeroParameter).
    B = P A P^-1 with P[i][perm[i]] = (1, q^2, q)[i], perm = (1, 0, 2).
    """
    (qq, tt), n = common_field(q, t)
    _require_nonzero(qq, tt, error=ZeroParameter, message="q and t must be nonzero")
    a = CMatrix([[tt * qq * qq, 0, tt * qq * (qq - 1)], [0, 1 - qq, qq], [0, 1, 0]], n)
    return LBRep(target=GroupKind.B3, A=a, B=_conjugate(a, [1, qq * qq, qq], perm=(1, 0, 2)))


def perm3(t) -> LBRep:
    """The permutation-flavored symmetric extension with parameter t.

    Its S = S1*S2 is not proportional to AB: a genuinely non-standard
    extension, factoring through the symmetric loop braid group.  B is A
    with its basis permuted: B[i][j] = A[p[i]][p[j]], p = (2, 0, 1).
    """
    (tt,), n = common_field(t)
    _require_nonzero(tt, error=ZeroParameter, message="t must be nonzero")
    if tt.is_one:
        raise ConstraintViolated("t = 1 is excluded (reducible degenerate)")
    a = CMatrix([[0, tt, 0], [1, 0, 0], [0, 0, 1]], n)
    b = _conjugate(a, [1] * 3, perm=(2, 0, 1))
    s1 = CMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]], n)
    s2 = CMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]], n)
    return LBRep(target=GroupKind.SLB3, A=a, B=b, S1=s1, S2=s2)
