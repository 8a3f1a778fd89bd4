"""Constructors for the explicit representation families.

Every constructor returns an LBRep over an automatically chosen cyclotomic
field: `common_field` joins the parameters' conductors (with 3 where a
primitive cube root of unity is structurally required), and all promotion
happens here at construction time, never lazily.

Parameters may be ints, Fractions or CycNum values.
"""

from __future__ import annotations

import math

from .cyclotomic import CycNum, common_field, make_root_of_unity, omega
from .errors import (
    ConstraintViolated,
    InvalidBlockCombination,
    NotASquareRoot,
    ZeroEigenvalue,
    ZeroParameter,
)
from .extend import build_standard_extension
from .linalg import CMatrix
from .repcore import GroupKind, LBRep


def _require_nonzero(vals, error=ZeroEigenvalue, what="eigenvalue"):
    for v in vals:
        if v.is_zero:
            raise error(f"{what} parameters must be nonzero")


def tw2(lam1, lam2, family: int = 2) -> LBRep:
    """The two 2-dimensional braid pairs (reducible family 1, irreducible 2).

    Family 1:  A = [[l1, l1], [0, l2]],  B = [[l1, -l2], [0, l2]]
               with -l1/l2 a primitive cube root of unity.
    Family 2:  A = [[l1, l1], [0, l2]],  B = [[l2, 0], [-l2, l1]]
               with l1^2 - l1*l2 + l2^2 != 0.
    """
    (l1, l2), n = common_field(lam1, lam2, extra=3 if family == 1 else 1)
    _require_nonzero([l1, l2])
    a = CMatrix([[l1, l1], [CycNum.zero(n), l2]], n)
    if family == 1:
        w = omega(n)
        ratio = -l1 / l2
        if ratio != w and ratio != w * w:
            raise ConstraintViolated(
                "family 1 requires -lambda1/lambda2 to be a primitive cube root of unity"
            )
        b = CMatrix([[l1, -l2], [CycNum.zero(n), l2]], n)
    elif family == 2:
        if (l1 * l1 - l1 * l2 + l2 * l2).is_zero:
            raise ConstraintViolated(
                "family 2 requires lambda1^2 - lambda1*lambda2 + lambda2^2 != 0"
            )
        b = CMatrix([[l2, CycNum.zero(n)], [-l2, l1]], n)
    else:
        raise ConstraintViolated("family must be 1 or 2")
    return LBRep(target=GroupKind.B3, A=a, B=b)


def tw3(lam1, lam2, lam3) -> LBRep:
    """The 3-dimensional ordered-triangular pair with spectrum (l1, l2, l3)."""
    (l1, l2, l3), n = common_field(lam1, lam2, lam3)
    _require_nonzero([l1, l2, l3])
    z = CycNum.zero(n)
    mix = l1 * l3 / l2 + l2
    a = CMatrix([[l1, mix, l2], [z, l2, l2], [z, z, l3]], n)
    b = CMatrix([[l3, z, z], [-l2, l2, z], [l2, -mix, l1]], n)
    return LBRep(target=GroupKind.B3, A=a, B=b)


def tw4(lams, gamma2) -> LBRep:
    """The 4-dimensional family; gamma2 is the square gamma^2 directly.

    Only even powers of gamma enter the entries, so the constructor takes
    gamma^2 as the primary datum subject to (gamma^2)^2 = l1*l2*l3*l4.
    """
    vals, n = common_field(*lams, gamma2)
    l1, l2, l3, l4, g2 = vals
    _require_nonzero([l1, l2, l3, l4])
    if g2 * g2 != l1 * l2 * l3 * l4:
        raise ConstraintViolated("need gamma^4 = lambda1*lambda2*lambda3*lambda4")
    z = CycNum.zero(n)
    one = CycNum.one(n)
    q = l1 * l4 / g2
    r = l2 * l3 / g2
    a = CMatrix(
        [
            [l1, (one + q + q * q) * l2, (one + q + q * q) * l3, l4],
            [z, l2, (one + q) * l3, l4],
            [z, z, l3, l4],
            [z, z, z, l4],
        ],
        n,
    )
    b = CMatrix(
        [
            [l4, z, z, z],
            [-l3, l3, z, z],
            [l2 * l2 * l3 / g2, -(r + one) * l2, l2, z],
            [
                -l1 * l2**3 * l3**3 / g2**3,
                (r**3 + r * r + r) * l1,
                -(r * r + r + one) * l1,
                l1,
            ],
        ],
        n,
    )
    return LBRep(target=GroupKind.B3, A=a, B=b)


def tw5(lams, gamma) -> LBRep:
    """The 5-dimensional family; gamma is a fixed fifth root of the product.

    B is determined entrywise by B[i][j] = (-1)^(i-j) * A[6-i][6-j]
    (1-indexed).
    """
    vals, n = common_field(*lams, gamma)
    l1, l2, l3, l4, l5, g = vals
    _require_nonzero([l1, l2, l3, l4, l5])
    if g**5 != l1 * l2 * l3 * l4 * l5:
        raise ConstraintViolated("need gamma^5 = lambda1*...*lambda5")
    z = CycNum.zero(n)
    one = CycNum.one(n)
    g2, g3 = g * g, g**3
    t15 = g3 / (l1 * l5)
    arows = [
        [
            l1,
            (one + g2 / (l2 * l4)) * (l2 + g3 / (l3 * l4)),
            (one + l1 * l5 / g2) * (l3 + g + g2 / l3),
            (one + l2 * l4 / g2) * (l3 + g3 / (l2 * l4)),
            t15,
        ],
        [z, l2, l3 + g + g2 / l3, l3 + g + t15, t15],
        [z, z, l3, l3 + t15, t15],
        [z, z, z, l4, l4],
        [z, z, z, z, l5],
    ]
    a = CMatrix(arows, n)
    sign = lambda k: CycNum.one(n) if k % 2 == 0 else -CycNum.one(n)
    b = CMatrix.build(5, n, lambda i, j: sign(i + j) * arows[4 - i][4 - j])
    return LBRep(target=GroupKind.B3, A=a, B=b)


def binomial_pair(lams, c) -> tuple[CMatrix, CMatrix]:
    """The raw (d+1)-dimensional binomial braid pair in ordered triangular form.

    For 0 <= i, j <= d, with C the binomial coefficient:

        A[i][j] = C(j, i) * lambda_(d-j)
        B[i][j] = (-1)^(i+j) * C(d-j, d-i) * lambda_i

    subject to lambda_i * lambda_(d-i) = c for all i.  Every lambda product
    in AB telescopes through that pairing, so AB is pure binomial data and
    cubes to (-1)^d c^3 I.
    """
    vals, n = common_field(*lams, c, extra=3)
    *ls, cc = vals
    d = len(ls) - 1
    if d < 1:
        raise ConstraintViolated("need at least two eigenvalue parameters")
    _require_nonzero(ls)
    if cc.is_zero:
        raise ZeroParameter("c must be nonzero")
    for i in range(d + 1):
        if ls[i] * ls[d - i] != cc:
            raise ConstraintViolated(
                f"need lambda_{i} * lambda_{d - i} = c"
            )
    zero = CycNum.zero(n)
    a = CMatrix.build(
        d + 1, n, lambda i, j: math.comb(j, i) * ls[d - j] if i <= j else zero
    )
    b = CMatrix.build(
        d + 1,
        n,
        lambda i, j: (
            ((-1) ** (i + j)) * math.comb(d - j, d - i) * ls[i] if j <= i else zero
        ),
    )
    return a, b


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
    if zz.is_zero:
        raise ZeroParameter("z must be nonzero")
    zi = zz.inv()
    zero = CycNum.zero(n)
    one = CycNum.one(n)
    s = CMatrix(
        [
            [zero, zero, zz],
            [zero, zz, zz],
            [-zi * zi, (one - zz**3) * zi * zi, -zz],
        ],
        n,
    )
    s1 = CMatrix(
        [
            [one, zz - one, zz],
            [zero, zz, zz],
            [zero, (one - zz * zz) * zi, -zz],
        ],
        n,
    )
    if sign == -1:
        s1 = -s1
    s2 = s1 @ s  # S1^2 = I, so S2 = S1 S
    return LBRep(target=GroupKind.SLB3, A=base.A, B=base.B, S1=s1, S2=s2)


def counterexample6() -> LBRep:
    """The 6-dimensional irreducible pair over Z[w] with no extension."""
    w = make_root_of_unity(3, 1)
    w2 = w * w
    one = CycNum.one(3)
    z = CycNum.zero(3)
    a = CMatrix(
        [
            [one, 1 - w, 1 - w2, w - 1, w2 - 1, w - 1],
            [w2 - 1, w2, z, 1 - w2, z, z],
            [w2 - 1, w2 - 1, w2, 1 - w2, 1 - w2, z],
            [z, w - 1, w2 - 1, -w, 1 - w2, 1 - w],
            [1 - w2, 1 - w2, z, w2 - 1, -one, z],
            [1 - w2, 1 - w2, 1 - w2, w2 - 1, w2 - 1, -one],
        ],
        3,
    )
    b = CMatrix(
        [
            [one, 1 - w, 1 - w2, 1 - w, 1 - w2, 1 - w],
            [w2 - 1, w2, z, w2 - 1, z, z],
            [w2 - 1, w2 - 1, w2, w2 - 1, w2 - 1, z],
            [z, 1 - w, 1 - w2, -w, 1 - w2, 1 - w],
            [w2 - 1, w2 - 1, z, w2 - 1, -one, z],
            [w2 - 1, w2 - 1, w2 - 1, w2 - 1, w2 - 1, -one],
        ],
        3,
    )
    return LBRep(target=GroupKind.B3, A=a, B=b)


def v1_family(lam, x) -> LBRep:
    """Two-dimensional loop representations with S = I and A = B."""
    (l, xx), n = common_field(lam, x)
    if l.is_zero:
        raise ZeroEigenvalue("lambda must be nonzero")
    z = CycNum.zero(n)
    one = CycNum.one(n)
    a = CMatrix([[l, xx], [z, -l]], n)
    swap = CMatrix([[z, one], [one, z]], n)
    return LBRep(target=GroupKind.LB3, A=a, B=a, S1=swap, S2=swap)


def abeq_family(n_half: int, mu, sqrt_mu, sign: int = -1) -> LBRep:
    """The 2n-dimensional A = B families with S = mu^-1 w A^2 and V_1 = 0.

    A = diag(A1, A2) in n x n blocks; A2's companion blocks carry mu*w and
    S2 swaps the two blocks.  The parity of n picks the blocks: for n odd
    A1 is sqrt(mu) then companion blocks, for n even sqrt(mu), companion
    blocks, -+sqrt(mu); A2 mirrors that parity.
    """
    if n_half < 1:
        raise InvalidBlockCombination("block size n must be >= 1")
    (m, sm), n = common_field(mu, sqrt_mu, extra=3)
    if m.is_zero:
        raise ZeroParameter("mu must be nonzero")
    if sm * sm != m:
        raise NotASquareRoot("sqrt_mu^2 != mu")
    if sign not in (1, -1):
        raise InvalidBlockCombination("sign must be +1 or -1")
    w = omega(n)
    z = CycNum.zero(n)
    one = CycNum.one(n)

    def companion(top) -> list[list[CycNum]]:
        return [[z, top], [one, z]]

    def diag_blocks(blocks) -> list[list[CycNum]]:
        size = sum(len(b) for b in blocks)
        rows = [[z] * size for _ in range(size)]
        at = 0
        for blk in blocks:
            for i, row in enumerate(blk):
                for j, e in enumerate(row):
                    rows[at + i][at + j] = e
            at += len(blk)
        return rows

    if n_half % 2 == 1:
        a1 = diag_blocks([[[sm]]] + [companion(m)] * ((n_half - 1) // 2))
        a2 = diag_blocks([companion(m * w)] * ((n_half - 1) // 2) + [[[sm * w * w]]])
    else:
        a1 = diag_blocks(
            [[[sm]]] + [companion(m)] * ((n_half - 2) // 2) + [[[sign * sm]]]
        )
        a2 = diag_blocks([companion(m * w)] * (n_half // 2))
    a = CMatrix(diag_blocks([a1, a2]), n)
    s2 = CMatrix.build(
        2 * n_half,
        n,
        lambda i, j: one if abs(i - j) == n_half else z,
    )
    s = (a @ a).scalar_mul(w / m)
    s1 = s @ s2
    return LBRep(target=GroupKind.LB3, A=a, B=a, S1=s1, S2=s2)


def lkb3(q, t) -> LBRep:
    """The Lawrence-Krammer-Bigelow pair for three strands.

    The paper's degenerate locus is t q^2 = -1, t q = 1, q = 1; the pair
    is built there too.  q = 0 or t = 0 is refused (ZeroParameter).
    """
    (qq, tt), n = common_field(q, t)
    if qq.is_zero or tt.is_zero:
        raise ZeroParameter("q and t must be nonzero")
    z = CycNum.zero(n)
    one = CycNum.one(n)
    a = CMatrix(
        [
            [tt * qq * qq, z, tt * qq * (qq - one)],
            [z, one - qq, qq],
            [z, one, z],
        ],
        n,
    )
    b = CMatrix(
        [
            [one - qq, z, one],
            [z, tt * qq * qq, tt * qq * qq * (qq - one)],
            [qq, z, z],
        ],
        n,
    )
    return LBRep(target=GroupKind.B3, A=a, B=b)


def perm3(t) -> LBRep:
    """The permutation-flavored symmetric extension with parameter t.

    Its S = S1*S2 is not proportional to AB: a genuinely non-standard
    extension, factoring through the symmetric loop braid group.
    """
    (tt,), n = common_field(t)
    if tt.is_zero:
        raise ZeroParameter("t must be nonzero")
    if tt.is_one:
        raise ConstraintViolated("t = 1 is excluded (reducible degenerate)")
    z = CycNum.zero(n)
    one = CycNum.one(n)
    a = CMatrix([[z, tt, z], [one, z, z], [z, z, one]], n)
    b = CMatrix([[one, z, z], [z, z, tt], [z, one, z]], n)
    s1 = CMatrix([[z, one, z], [one, z, z], [z, z, one]], n)
    s2 = CMatrix([[one, z, z], [z, z, one], [z, one, z]], n)
    return LBRep(target=GroupKind.SLB3, A=a, B=b, S1=s1, S2=s2)
