"""Extension machinery: standard extensions, their parametrization, SLB3/VB3
logic, polynomial-form analysis, the uniqueness linearization and the
no-extension certification with its numeric exhaustiveness oracle.

A standard extension of a braid pair (A, B) sends s_1 s_2 to S = k*A*B.
Existence is equivalent to (AB)^3 = k^-3 I together with Tr(kAB) being a
rational integer; the toolkit must additionally manage the field of
definition, so k is searched inside the working cyclotomic field, the
input's with omega adjoined, and a structured empty result tells the
caller how to proceed.  One helper, `_k_cube_roots`, cubes AB and takes
the cube roots of (AB)^-3 in the field; `standard_k_candidates`, behind
`extend`, `analyze`, `sweep` and the VB3 lift, keeps the roots k with
Tr(kAB) in Z.

Every order-three S becomes its involutions (S1, S2 = S1 S) through one
step, `_complete(s, m, m_inv, ell, a)`, whether S = kAB
(`build_standard_extension` and the 2-dimensional line route
`standard_extension_2d`) or the VB3 twist k B^2 S' (`vb3_lift`); both
builders return the same certificate of S, and `vb3_lift` forms
k B (B S') from the products S'A and BS' that verifying the input's L1
kept on its matrices.  Its J0 = diag(I_a, -I_(l-a), [[0, I_t], [I_t, 0]])
is a signed permutation, so S1 = (M J0) M^-1 is M with its columns moved,
then one product with the M^-1 the caller hands in;
`build_standard_extension` folds any other (N, G) into M once.  The
eigenspaces of S decide S^3 = I with Tr(S) in Z in one test,
`default_extension_params`; no builder cubes S.  M^-1 is read off the
spectral projectors of S (`_eigenbasis`), so no completion of a default M
runs an elimination to invert it.  Whether a given S1 completes S is the
S3 relation table itself (`s3_completion_check`).  Mixed inputs meet in
one field through `cyclotomic.common_field`, with omega adjoined wherever
S is split.

Every S with SA = BS is a combination of E_k = B^k AB when B is cyclic.
`_basis_matrices` checks that hypothesis and builds the E_k; it is the
one S-space for `polynomial_S_solve` and for `certify_no_extension`,
which builds it once and hands the same list to its candidates, its
candidate checks and `numeric_cubic_oracle`.  A polynomial S is its
coefficient tuple over that list.  `default_polynomial_candidates` reads
AB as basis[0] and takes k from `_k_cube_roots`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import (
    CycNum,
    _new,
    _root_of_unity_part,
    common_field,
    make_root_of_unity,
    nth_root_in_field,
    omega,
    packed_product,
    rational_nth_root,
)
from .errors import (
    BadBasisChange,
    BadCandidate,
    ConstraintViolated,
    DimMismatch,
    EigenlineChosen,
    HypothesisUnmet,
    InvalidOption,
    MinPolyMismatch,
    MissingGenerator,
    NoSolution,
    NotOrderThree,
    SingularMatrix,
    TraceZero,
    WrongForm,
)
from .linalg import CMatrix, Vector, _block_diagonal, _mod_p_first, matrix_rank, solve_linear
from .repcore import GroupKind, LBRep, relation_holds, verify


# ---------------------------------------------------------------------------
# standard k-candidates
# ---------------------------------------------------------------------------


@dataclass
class StandardKSearch:
    """Result of the in-field search for standard-extension scalars.

    candidates is the (possibly empty) list of (k, m) with (AB)^3 = k^-3 I
    and Tr(kAB) = m a rational integer.  When empty, `reason` is one of
    "cube-not-scalar", "not-cyclotomic" (k^3 is a rational non-cube times
    a root of unity, so no cyclotomic field holds k), "no-root-in-field"
    (suggested_conductor is set only when Q(zeta_3n) is confirmed to hold
    k, n the working conductor) or "no-integer-trace"; k_cubed records the
    required value of k^3 whenever (AB)^3 is scalar.
    """

    candidates: list[tuple[CycNum, int]]
    k_cubed: CycNum | None = None
    reason: str | None = None
    suggested_conductor: int | None = None


def _k_cube_roots(ab: CMatrix) -> tuple[CycNum | None, list[CycNum]]:
    """k^3 = (AB)^-3 and its cube roots in the field of AB, in
    `nth_root_in_field`'s order; (None, []) when (AB)^3 is not scalar, and
    SingularMatrix when it is 0.

    The one k-search, behind `standard_k_candidates` and
    `default_polynomial_candidates`.
    """
    c = ab.matpow(3).is_scalar()
    if c is None:
        return None, []
    if c.is_zero:
        raise SingularMatrix("(AB)^3 = 0, so no k gives (kAB)^3 = I")
    k_cubed = c.inv()
    return k_cubed, nth_root_in_field(k_cubed, 3)


def standard_k_candidates(a: CMatrix, b: CMatrix) -> StandardKSearch:
    """All k in the working field making S = kAB a standard-extension seed.

    The working field is Q(zeta_n), n = lcm(N, 3): the input's field with
    omega adjoined, where every builder and `certify_no_extension` work, so
    every command lists the same k's.  The roots of `_k_cube_roots(AB)`
    with Tr(kAB) a rational integer.  At most one candidate exists when
    Tr(kAB) != 0 and at most three (differing by a cube root of unity) when
    the trace vanishes.  The reason for an empty result is looked for here
    alone, since its check for a root in Q(zeta_3n) may factor.
    """
    (a, b), _ = common_field(a, b, extra=3)
    ab = a @ b
    k_cubed, roots = _k_cube_roots(ab)
    if k_cubed is None:
        return StandardKSearch([], reason="cube-not-scalar")
    if not roots:
        if _rational_part_is_noncube(k_cubed):
            return StandardKSearch([], k_cubed=k_cubed, reason="not-cyclotomic")
        n = a.conductor
        # 3 | n, so Q(zeta_3n) = Q(zeta_n)(zeta_n^(1/3)) is a Kummer
        # extension: k^3 is a cube there iff k^3 zeta_n^-j is a cube in
        # Q(zeta_n) for some j in {0, 1, 2}, and j = 0 has just failed
        bigger = any(nth_root_in_field(k_cubed * make_root_of_unity(n, -j), 3) for j in (1, 2))
        return StandardKSearch(
            [],
            k_cubed=k_cubed,
            reason="no-root-in-field",
            suggested_conductor=3 * n if bigger else None,
        )
    tr = ab.trace()
    out = []
    for k in roots:
        m = (k * tr).as_integer()
        if m is not None:
            out.append((k, m))
    if not out:
        return StandardKSearch([], k_cubed=k_cubed, reason="no-integer-trace")
    return StandardKSearch(out, k_cubed=k_cubed)


def _rational_part_is_noncube(x: CycNum) -> bool:
    """True when x = q*u for a root of unity u and a rational non-cube q.

    Then no abelian field, so no cyclotomic field, holds a cube root of x:
    it would hold a real cube root of q, whose field Q(q^(1/3)) is not
    normal over Q.
    """
    part = _root_of_unity_part(x)
    return part is not None and rational_nth_root(part[0], 3) is None


# ---------------------------------------------------------------------------
# building standard extensions
# ---------------------------------------------------------------------------


@dataclass
class ExtensionParams:
    """Free data of the explicit standard-extension parametrization.

    M conjugates S to diag(I_l, w I_t, w^2 I_t); N (l x l, invertible)
    and 0 <= a <= l pick the involution on the 1-eigenspace; G (t x t,
    invertible) pairs the w and w^2 eigenspaces.  G or N may be None when
    the corresponding block is empty.
    """

    M: CMatrix
    G: CMatrix | None
    a: int
    N: CMatrix | None

    @property
    def ell(self) -> int:
        return self.N.dim if self.N is not None else 0

    @property
    def t(self) -> int:
        return self.G.dim if self.G is not None else 0


@dataclass
class ExtensionCertificate:
    """Witness that S extends (A, B): the scalar k, S itself, the free
    parameters that rebuilt S1/S2 and the integer trace value.  S is kAB
    for `build_standard_extension` and k B^2 S' for `vb3_lift`."""

    k: CycNum
    S: CMatrix
    params: ExtensionParams
    trace_value: int


def default_extension_params(s: CMatrix) -> ExtensionParams:
    """Canonical parameters: M from eigenspace bases, G = I, N = I, a = l.

    The one test of S^3 = I with Tr(S) in Z (NotOrderThree otherwise), made
    by `_eigenbasis`, which also reads M^-1 off S for the builders.
    """
    return _eigenbasis(s)[0]


def _eigenbasis(s: CMatrix) -> tuple[ExtensionParams, CMatrix]:
    """`default_extension_params(s)` and the inverse of its M.

    The 1-, w- and w^2-eigenspaces fill the space iff S^3 = I, and then
    Tr(S) = l + t_w w + t_w2 w^2 is rational iff t_w = t_w2 = t.
    M^-1 S M = diag(I_l, w I_t, w^2 I_t) holds by construction.  Each
    kernel vector of S - uI holds 1 at its own free column f, its last
    nonzero entry, and 0 at the block's other free columns
    (`Echelon.kernel`), so its row of M^-1 is row f of the projector
    P_u = (I + u^-1 S + u^-2 S^2) / 3 onto the u-eigenspace: one product,
    S^2, and d rows, with no elimination.
    """
    n, w = s.conductor, omega(s.conductor)
    units = (CycNum.one(n), w, w * w)
    blocks = [_shifted(s, u).kernel() for u in units]
    v1, vw, vw2 = blocks
    if len(v1) + len(vw) + len(vw2) != s.dim:
        raise NotOrderThree("S^3 != I")
    if len(vw) != len(vw2):
        raise NotOrderThree("Tr(S) is not a rational integer")
    ell, t = len(v1), len(vw)
    m = CMatrix([*v1, *vw, *vw2], n).transpose()
    g = CMatrix.identity(t, n) if t else None
    nmat = CMatrix.identity(ell, n) if ell else None
    s2, m_inv = s @ s, []
    for u, vectors in zip(units, blocks):
        u_inv = u * u  # u^3 = 1, so u^-1 = u^2 and u^-2 = u
        for v in vectors:
            f = max(j for j, e in enumerate(v) if e)  # v's free column
            row = [x * u_inv + y * u for x, y in zip(s.rows[f], s2.rows[f])]
            row[f] = row[f] + 1
            m_inv.append([_new(n, e._num, 3 * e._den) for e in row])
    return ExtensionParams(M=m, G=g, a=ell, N=nmat), CMatrix._of(m_inv, n)


def _shifted(s: CMatrix, u) -> CMatrix:
    """S - uI, formed on the diagonal alone."""
    rows = [list(r) for r in s.rows]
    for i, r in enumerate(rows):
        r[i] = r[i] - u
    return CMatrix._of(rows, s.conductor)


def _diag_pattern(ell: int, t: int, conductor: int) -> CMatrix:
    w = omega(conductor)
    return CMatrix.diagonal(
        [CycNum.one(conductor)] * ell + [w] * t + [w * w] * t, conductor
    )


def _seed_params(s: CMatrix) -> tuple[ExtensionParams, CMatrix]:
    """`_eigenbasis(s)`, with BadCandidate for a k that fails."""
    try:
        return _eigenbasis(s)
    except NotOrderThree as exc:
        raise BadCandidate(f"k fails the existence criterion: {exc}") from None


def _complete(
    s: CMatrix, m: CMatrix, m_inv: CMatrix, ell: int, a: int
) -> tuple[CMatrix, CMatrix]:
    """(S1, S2) = (M J0 M^-1, S1 S) for J0 = diag(I_a, -I_(l-a), [[0, I_t], [I_t, 0]]).

    The one completion step of every order-three S; M must already be
    known to conjugate S to diag(I_l, w I_t, w^2 I_t), and every caller
    hands its inverse m_inv in.  J0 is a signed permutation, so M J0 is M
    with its columns moved: the first a as they are, the rest of the
    1-block negated, then the w^2 block and the w block, exchanged.  Two
    products, and no inverse.
    """
    t, cols = (s.dim - ell) // 2, m.columns()
    negated = [[-e for e in c] for c in cols[a:ell]]
    moved = [*cols[:a], *negated, *cols[ell + t :], *cols[ell : ell + t]]
    s1 = CMatrix._of(list(zip(*moved)), s.conductor) @ m_inv
    return s1, s1 @ s


def build_standard_extension(
    a: CMatrix, b: CMatrix, k: CycNum, params: ExtensionParams | None = None
) -> tuple[LBRep, ExtensionCertificate]:
    """Assemble the loop representation with S = kAB and its certificate.

    The image of s_1 is M J M^-1 for the block involution
    J = diag(N diag(I_a, -I_(l-a)) N^-1, [[0, G], [G^-1, 0]]) of (G, a, N);
    s_2 maps to s_1's image times S.  J = Q J0 Q^-1 for Q = diag(N, I_t, G^-1)
    and the J0 of `_complete`, so M Q is completed in place of M, with
    (M Q)^-1 = Q^-1 M^-1, and default parameters (N = I, G = I) take M as it
    is, with the M^-1 of `_eigenbasis`.  Raises BadCandidate
    unless (kAB)^3 = I and Tr(kAB) is in Z, with or without params, and
    BadBasisChange when the blocks do not tile the dimension, a is not in
    0..l, or M does not diagonalize S to the required pattern.
    """
    given = () if params is None else (params.M, params.G, params.N)
    (a, b, k, *given), n = common_field(a, b, k, *given, extra=3)
    s = (a @ b).scalar_mul(k)
    default, default_inv = _seed_params(s)
    if params is None:
        params, m, m_inv = default, default.M, default_inv
    else:
        m, g, nmat = given
        params = ExtensionParams(M=m, G=g, a=params.a, N=nmat)
        ell, t = params.ell, params.t
        if ell + 2 * t != s.dim:
            raise BadBasisChange("parameter block sizes do not tile the dimension")
        if not 0 <= params.a <= ell:
            raise BadBasisChange("need 0 <= a <= l")
        m_inv = m.inverse()
        if m_inv @ s @ m != _diag_pattern(ell, t, n):
            raise BadBasisChange("M^-1 S M != diag(I_l, w I_t, w^2 I_t)")
        if not all(x is None or x.is_identity for x in (g, nmat)):
            ident = [[int(i == j) for j in range(t)] for i in range(t)]
            q = [nmat.rows if ell else [], ident, g.inverse().rows if t else []]
            q_inv = [nmat.inverse().rows if ell else [], ident, g.rows if t else []]
            m, m_inv = m @ _block_diagonal(q, n), _block_diagonal(q_inv, n) @ m_inv
    s1, s2 = _complete(s, m, m_inv, params.ell, params.a)
    rep = LBRep(target=GroupKind.LB3, A=a, B=b, S1=s1, S2=s2)
    return rep, ExtensionCertificate(k, s, params, s.trace().as_integer())


def involution_param_dimension(ell: int, t: int, a: int | None = None) -> int:
    """Dimension of the variety of involutions S1 that complete a standard
    S with an l-dimensional 1-eigenspace and t-dimensional w- and
    w^2-eigenspaces (the blocks of `default_extension_params`).

    Such an S1 preserves the 1-eigenspace, where it is an involution with
    an a-dimensional +1 eigenspace (a class of dimension 2a(l - a) in
    GL_l), and pairs the w- and w^2-eigenspaces through any invertible
    t x t matrix G (t^2 more).  With `a` this is the dimension of that
    component, else the largest over a: floor(l^2 / 2) + t^2.
    """
    if ell < 0 or t < 0:
        raise ValueError("block sizes must be nonnegative")
    if a is None:
        a = ell // 2
    elif not 0 <= a <= ell:
        raise ValueError("need 0 <= a <= l")
    return 2 * a * (ell - a) + t * t


def s3_completion_check(s: CMatrix, s1: CMatrix) -> bool:
    """Does the involution s1 complete S to a symmetric-group action?

    The S3 relations of `repcore.RELATION_WORDS` on (S1, S2 = S1 S), once
    S^3 = I (NotOrderThree otherwise).  With S1^2 = I, Sigma1 reads
    S1 S S1 = S^2; as P_1, P_w and P_w2 are polynomials in S, that holds
    exactly when S1 fixes P_1 and swaps P_w with P_w2.
    """
    (s, s1), n = common_field(s, s1)
    if s.matpow(3) != CMatrix.identity(s.dim, n):
        raise NotOrderThree("S^3 != I")
    return verify(LBRep(target=GroupKind.S3, S1=s1, S2=s1 @ s)).all_hold


# ---------------------------------------------------------------------------
# low-dimensional special cases
# ---------------------------------------------------------------------------


def standard_extension_2d(a: CMatrix, b: CMatrix, line: Vector) -> LBRep:
    """Two-dimensional extension attached to a line outside the eigenlines.

    S = -Tr(AB)^-1 AB; the spanning vector v of the line splits as
    v_w + v_w2 over the omega eigenspaces and S1 is the involution
    swapping the two components: the standard extension with M = (v_w v_w2)
    and the t = 1 block G = I.
    """
    if a.dim != 2:
        raise DimMismatch("standard_extension_2d needs 2x2 matrices")
    if a == b:
        raise ConstraintViolated("requires A != B")
    if not relation_holds({"A": a, "B": b}, "B1"):
        raise ConstraintViolated("braid relation fails")
    (a, b, *v), n = common_field(a, b, *line, extra=3)
    ab = a @ b
    tr = ab.trace()
    if tr.is_zero:
        raise TraceZero("Tr(AB) = 0 cannot occur for 2-dim braid pairs")
    s = ab.scalar_mul(-tr.inv())
    # the eigenvector columns m_w, m_w2 of M split v = c_0 m_w + c_1 m_w2,
    # so M diag(c) = (v_w v_w2), whose inverse is diag(c)^-1 M^-1
    params, m_inv = _eigenbasis(s)
    c = m_inv.apply(v)
    if any(x.is_zero for x in c):
        raise EigenlineChosen("line must avoid the two eigenlines of S")
    scaled_inv = CMatrix.diagonal([x.inv() for x in c], n) @ m_inv
    s1, s2 = _complete(s, params.M @ CMatrix.diagonal(c, n), scaled_inv, 0, 0)
    return LBRep(target=GroupKind.LB3, A=a, B=b, S1=s1, S2=s2)


# ---------------------------------------------------------------------------
# polynomial form of S and the uniqueness linearization
# ---------------------------------------------------------------------------


def _basis_matrices(a: CMatrix, b: CMatrix) -> list[CMatrix]:
    """The S-space basis [AB, BAB, ..., B^(d-1) AB].

    Every S with SA = BS is sum_k b_k B^k AB when B is cyclic (min poly =
    char poly), so this is the one check of that hypothesis for
    `polynomial_S_solve` and `certify_no_extension`: MinPolyMismatch
    otherwise.  A polynomial S is its coefficient tuple over this list.
    """
    if not b.is_cyclic():
        raise MinPolyMismatch("min poly of B must equal its char poly")
    mats = [a @ b]
    for _ in range(a.dim - 1):
        mats.append(b @ mats[-1])
    return mats


def _entry_columns(basis: list[CMatrix]) -> list[tuple[CycNum, ...]]:
    """Per entry (i, j), row-major: the vector of E_n[i, j] over the basis."""
    return list(zip(*(e.flatten() for e in basis)))


def _combination(coefficients, basis: list[CMatrix]) -> CMatrix:
    """sum_n c_n E_n: one packed row, the coefficients, against the d^2
    entry columns of the basis."""
    d = basis[0].dim
    flat = packed_product([coefficients], _entry_columns(basis))[0]
    return CMatrix([flat[i * d : (i + 1) * d] for i in range(d)], basis[0].conductor)


def polynomial_S_solve(a: CMatrix, b: CMatrix, s: CMatrix) -> tuple[CycNum, ...]:
    """The unique coefficients with S = sum a_n B^n A B (exact linear solve).

    The basis is built first, so a B that is not cyclic raises
    MinPolyMismatch before a singular S raises SingularMatrix.  The
    solution is unique: B cyclic makes I, B, ..., B^(d-1) independent, so
    the B^n A B are independent when AB is invertible, and when AB is
    singular every combination of them is singular and the invertible S
    is outside their span (NoSolution).
    """
    basis = _basis_matrices(a, b)
    if matrix_rank(s.rows) < s.dim:
        raise SingularMatrix("S must be invertible")
    sol = solve_linear(_entry_columns(basis), list(s.flatten()))
    if sol is None:
        raise NoSolution("S is not in the span of the B^n A B")
    return sol[0]


@dataclass
class LinearizedSystem:
    """The homogeneous system in the monomials b_m b_n (m + n > 0).

    Equations come from the strictly-below-antidiagonal entries of S^2 and
    (BSA)^2, which must vanish for any extension in ordered triangular
    form; rank = N_d certifies that S = kAB is the only solution.  The rank
    is first asked of the images of A and B in F_p, where rank N_d already
    proves rank N_d.  Anything less is replayed on the exact rows with
    F_p's verdicts (`linalg._mod_p_first`): the rows independent mod p
    enter one exact `Echelon`, one packed product confirms that the others
    lie in their span, and only a failed confirmation ranks every exact row
    afresh.
    """

    d: int
    monomials: list[tuple[int, int]]
    n_unknowns: int
    n_equations: int
    rank: int
    verdict: str


def _linearized_rows(a, b, mul, positions, monomials) -> list[tuple]:
    """The uniqueness rows over any ring, A and B given as lists of rows and
    mul(x, y) their matrix product in that ring.

    Per family E_m = B^m AB, then F_m = B E_m A = E_(m+1) A, and per entry
    (i, j) in positions: the coefficients of the monomials b_m b_n in
    (sum_k b_k E_k)^2 [i, j], that is entry (i, j) of E_m E_n + E_n E_m,
    or of E_m^2 when m = n.
    """
    d = len(a)
    powers = [mul(a, b)]  # E_0, ..., E_d
    for _ in range(d):
        powers.append(mul(b, powers[-1]))
    rows = []
    for mats in (powers[:d], [mul(e, a) for e in powers[1:]]):
        for i, j in positions:
            # t[m][n] is entry (i, j) of E_m E_n
            t = mul([e[i] for e in mats], [[e[k][j] for e in mats] for k in range(d)])
            rows.append(
                tuple(t[m][n] if m == n else t[m][n] + t[n][m] for m, n in monomials)
            )
    return rows


def uniqueness_linearized(a: CMatrix, b: CMatrix) -> LinearizedSystem:
    """The uniqueness linearization of a pair in ordered triangular form.

    AB and (AB)^2 are checked exactly, since only an exact zero proves a
    zero.  The rank then takes the route of `linalg._mod_p_first`: the rows
    are built from the images of A and B in F_p and reduced there, and rank
    N_d mod p proves rank N_d with no exact row formed.  When the rank falls
    short, or A or B has a denominator p divides, the same
    `_linearized_rows` builds the exact rows and the exact side of
    `_mod_p_first` answers, with no second pass mod p.
    """
    d, n = a.dim, a.conductor
    if d not in (4, 5):
        raise DimMismatch("uniqueness linearization is for dimensions 4 and 5")
    ab = a @ b
    # ordered triangular form forces AB skew lower triangular
    for i in range(d):
        for j in range(d):
            if i + j < d - 1 and not ab.rows[i][j].is_zero:
                raise WrongForm("AB is not skew lower triangular")
    positions = [(i, j) for i in range(d) for j in range(d) if i + j >= d]
    ab2 = ab @ ab
    for i, j in positions:
        if not ab2.rows[i][j].is_zero:
            raise WrongForm("(AB)^2 is not skew upper triangular")
    monomials = [(m, n) for m in range(d) for n in range(m, d) if m + n > 0]
    n_d = (d + 2) * (d - 1) // 2
    assert len(monomials) == n_d
    def count(mats, ring, insert) -> int:
        rows = _linearized_rows(*mats, ring.mul, positions, monomials)
        return sum(insert(ring.row(r)) for r in rows)

    rank = _mod_p_first([a, b], n, n_d, n_d, count)
    verdict = "unique-standard" if rank == n_d else "indeterminate"
    return LinearizedSystem(
        d=d,
        monomials=monomials,
        n_unknowns=n_d,
        n_equations=2 * len(positions),
        rank=rank,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# SLB3 and VB3 logic
# ---------------------------------------------------------------------------


def slb3_test(rep: LBRep, route: str = "direct") -> bool:
    """Does the loop representation factor through SLB3?

    route "direct" checks the relation L2' exactly as defined; route
    "commutator" uses the [S2, B^2] = [S1, A^2] = 0 criterion, valid when
    the minimal and characteristic polynomials of A and B agree and
    (AB)^3 is scalar (HypothesisUnmet otherwise).  Both routes need S1 and
    S2 (MissingGenerator otherwise).
    """
    if rep.S1 is None or rep.S2 is None:
        raise MissingGenerator("the SLB3 test needs S1 and S2")
    if route == "direct":
        return relation_holds(rep.images(), "L2prime")
    if route == "commutator":
        a, b, s1, s2 = rep.A, rep.B, rep.S1, rep.S2
        if not (a.is_cyclic() and b.is_cyclic()):
            raise HypothesisUnmet("commutator route needs min poly = char poly")
        if (a @ b).matpow(3).is_scalar() is None:
            raise HypothesisUnmet("commutator route needs (AB)^3 scalar")
        a2, b2 = a @ a, b @ b
        return s2 @ b2 == b2 @ s2 and s1 @ a2 == a2 @ s1
    raise ValueError(f"unknown route {route!r}")


def vb3_lift(rep: LBRep, k: CycNum) -> tuple[LBRep, ExtensionCertificate]:
    """Twist a loop extension into a virtual one: new S = k B^2 S', and its
    certificate, as `build_standard_extension` returns one.

    Raises ConstraintViolated unless S'A = BS' (then SA = BS: for the new
    S, SA - BS = k B^2 (S'A - BS')), and BadCandidate unless k B^2 S' cubes
    to I with trace in Z: for a standard S' = k0 AB, k B^2 S' = k k0 (BA)^2,
    which holds exactly when k is a standard-extension candidate for
    (A, B).  The new S keeps the trace of kAB, and a fresh involution
    completes it.  S is formed as k B (B S'), and the check compares S'A
    with BS': `verify`'s L1 keeps both products on the input's matrices.
    """
    (rep, k), _ = common_field(rep, k, extra=3)
    a, b, s_in = rep.A, rep.B, rep.S
    b_s = b @ s_in
    if s_in @ a != b_s:
        raise ConstraintViolated("new S fails SA = BS; input was not LB3")
    s = (b @ b_s).scalar_mul(k)
    params, m_inv = _seed_params(s)
    s1, s2 = _complete(s, params.M, m_inv, params.ell, params.a)
    built = LBRep(target=GroupKind.VB3, A=a, B=b, S1=s1, S2=s2)
    return built, ExtensionCertificate(k, s, params, s.trace().as_integer())


# ---------------------------------------------------------------------------
# no-extension certification
# ---------------------------------------------------------------------------


def default_polynomial_candidates(basis: list[CMatrix]) -> list[tuple[CycNum, ...]]:
    """The cube-scaled families q k AB and q k^2 B^2 AB for q^3 = 1, each
    as its coefficients over the `_basis_matrices` list `basis`.

    AB is basis[0], whose field must hold omega, and k = k0 is the first
    root of `_k_cube_roots(AB)`, the search `standard_k_candidates` runs.
    For q = 1, omega, omega^2 in turn: q k0 on E_0, then q k0^2 on E_2
    when d >= 3.  Empty when k^3 has no cube root in the field.  These
    exhaust the solutions of S^3 = I in the polynomial family for the
    six-dimensional counterexample (and are the natural suspects in
    general once (AB)^3 is scalar).
    """
    n, d = basis[0].conductor, len(basis)
    k_cubed, roots = _k_cube_roots(basis[0])
    if k_cubed is None:
        raise ConstraintViolated("(AB)^3 must be scalar")
    if not roots:
        return []
    k0 = roots[0]
    w, zero = omega(n), CycNum.zero(n)
    out = []
    for q in (CycNum.one(n), w, w * w):
        out.append((q * k0, *[zero] * (d - 1)))
        if d >= 3:
            out.append((zero, zero, q * k0 * k0, *[zero] * (d - 3)))
    return out


@dataclass
class CandidateVerdict:
    coefficients: tuple[CycNum, ...]
    intertwines: bool
    cubes_to_identity: bool
    trace: CycNum
    trace_is_integer: bool
    trace_is_real: bool


@dataclass
class NoExtensionReport:
    """Exact candidate verdicts plus oracle exhaustiveness evidence.

    The verdict is "no extension" only when every candidate passes the
    exact structure checks, every candidate fails the integer-trace test,
    and every converged oracle cluster matches an exact candidate; the
    oracle step is heuristic evidence, so the verdict is certified modulo
    oracle exhaustiveness.
    """

    dim: int
    conductor: int
    candidates: list[CandidateVerdict]
    oracle: "OracleReport"
    exact_steps_pass: bool
    all_traces_non_integer: bool
    oracle_exhaustive: bool
    verdict: str


def certify_no_extension(
    a: CMatrix,
    b: CMatrix,
    starts: int = 2000,
    tol: float = 1e-9,
    cluster_radius: float = 1e-6,
    seed: int = 0,
) -> NoExtensionReport:
    _check_oracle_options(a.dim, starts, tol, cluster_radius, seed)
    (a, b), n = common_field(a, b, extra=3)
    basis = _basis_matrices(a, b)
    cands = default_polynomial_candidates(basis)
    ident = CMatrix.identity(a.dim, n)
    verdicts = []
    for coeffs in cands:
        s = _combination(coeffs, basis)
        intertwines = s @ a == b @ s
        cubes = s.matpow(3) == ident
        tr = s.trace()
        verdicts.append(
            CandidateVerdict(
                coefficients=coeffs,
                intertwines=intertwines,
                cubes_to_identity=cubes,
                trace=tr,
                trace_is_integer=tr.as_integer() is not None,
                trace_is_real=tr.is_real,
            )
        )
    oracle = numeric_cubic_oracle(basis, starts, tol, cluster_radius, seed, cands)
    exact_ok = bool(verdicts) and all(
        v.intertwines and v.cubes_to_identity for v in verdicts
    )
    no_integer = bool(verdicts) and all(not v.trace_is_integer for v in verdicts)
    exhaustive = bool(oracle.clusters) and all(
        c.nearest_candidate is not None and c.nearest_distance <= cluster_radius
        for c in oracle.clusters
    )
    if not verdicts:
        verdict = f"inconclusive: no exact candidate (no cube root of (AB)^-3 in Q(zeta_{n}))"
    elif exact_ok and no_integer and exhaustive:
        verdict = (
            f"no extension (exact steps pass; oracle exhaustive at "
            f"{oracle.starts} starts)"
        )
    elif not no_integer:
        verdict = "inconclusive: a candidate admits an integer trace (extension exists)"
    elif not exact_ok:
        verdict = "inconclusive: candidate structure checks failed"
    elif not oracle.converged:
        verdict = (
            f"inconclusive: no oracle start converged (0 of {oracle.starts} starts)"
        )
    else:
        verdict = "inconclusive: oracle found unmatched solution clusters"
    return NoExtensionReport(
        dim=a.dim,
        conductor=n,
        candidates=verdicts,
        oracle=oracle,
        exact_steps_pass=exact_ok,
        all_traces_non_integer=no_integer,
        oracle_exhaustive=exhaustive,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# numeric exhaustiveness oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleCluster:
    centroid: tuple[complex, ...]
    size: int
    max_residual: float
    trace: complex
    nearest_candidate: int | None = None
    nearest_distance: float | None = None


@dataclass
class OracleReport:
    """Every start ends converged (final residual below tol), diverged
    (the residual became non-finite) or unconverged (finite, but not
    below tol after the last step, whether the start stalled or reached
    the sweep cap): the three counts sum to `starts`.  Each start is
    scaled to |S(b)^3|_F = |I|_F before its first step, so the counts and
    cluster sizes are those of the scaled starts."""

    dim: int
    starts: int
    converged: int
    diverged: int
    unconverged: int
    tol: float
    cluster_radius: float
    seed: int
    clusters: list[OracleCluster]


# starts per block: the oracle scales, steps and measures one block before
# the next; it bounds the Newton step's temporaries, while the start
# vectors, residuals and converged solutions grow with `starts`
_ORACLE_BLOCK = 512
# starts per conjugate Jacobian in `_normal_equations`
_ORACLE_CHUNK = 128
# Gauss-Newton steps per start
_ORACLE_MAX_ITER = 80
# a start retires once its |f|_2 has stalled: finite, at least
# _ORACLE_STALL_FLOOR times the step threshold (tol / 100, so 1e6 tol), and
# moved by at most _ORACLE_STALL_RTOL of itself in each of its last
# _ORACLE_STALL_SWEEPS sweeps.  Gauss-Newton does not leave such a point,
# a stationary point of |F|_2 where F is not zero
_ORACLE_STALL_FLOOR = 1e8
_ORACLE_STALL_RTOL = 1e-9
_ORACLE_STALL_SWEEPS = 3


def _gemm_rows(x, y):
    """x @ y with every row rounded as gemm rounds it.  numpy sends a
    one-row product to gemv, which sums in another order, so a lone row
    goes in twice: a start's result then never depends on how many
    starts share its block."""
    import numpy as np

    if len(x) == 1:
        return (np.repeat(x, 2, axis=0) @ y)[:1]
    return x @ y


def _cubes(bv, eflat, d):
    """S(b)^3 for each row b, flattened; S = b @ eflat through `_gemm_rows`."""
    s = _gemm_rows(bv, eflat).reshape(-1, d, d)
    return (s @ s @ s).reshape(len(bv), d * d)


def _cubic_jacobian(e):
    """The transposed Jacobian of F(b) = S(b)^3 - I as one matmul, and F
    from it, in orthonormal coordinates of the span V of the equations.

    S(b) = sum_k b_k E_k, so dF/db_k = E_k S^2 + S E_k S + S^2 E_k is
    quadratic in b:

        dF/db_k = sum over q <= r of b_q b_r C[(q, r), k],

    with C[(q, r), k] = T[q,r,k] + T[r,q,k] (T[q,q,k] alone when q = r),
    T[q,r,k] = W[k,q,r] + W[q,k,r] + W[q,r,k] and W[p,q,r] = E_p E_q E_r.
    C is summed in long double and rounded once.

    Every dF/db_k is a combination of the rows C[(q, r), k] (as d*d
    vectors), and by Euler's identity 3 S^3 = sum_k b_k dF/db_k, so F
    too lies in V, the span of those rows and vec(I).  Returns
    (p, linearize).  p is (m, d*d) with orthonormal rows spanning V: a
    vector x of V has coordinates x @ p^H and is their product with p,
    and inner products of coordinates equal those of the vectors.  p is
    the identity when V is all of C^(d*d), and has no rows when C is not
    finite.  linearize(bv) maps n rows b to (jt, f): jt of shape
    (n, d, m) holds the coordinates of dF/db_k in row k (dF/db_k
    flattened in F's (i, l) order is jt[:, k] @ p), and f of shape
    (n, m) those of F, read off jt by Euler's identity.
    """
    import numpy as np

    d = len(e)
    el = e.astype(np.clongdouble)
    w = np.einsum("pij,qjk,rkl->pqril", el, el, el, optimize=True)
    t = w.transpose(1, 2, 0, 3, 4) + w.transpose(0, 2, 1, 3, 4) + w  # T[q, r, k]
    q, r = np.triu_indices(d)
    c = t[q, r]
    off = q != r
    c[off] += t[r[off], q[off]]
    c = c.reshape(len(q) * d, d * d).astype(complex)
    rows = np.vstack([c, np.eye(d).reshape(1, -1)])
    p = np.zeros((0, d * d), dtype=complex)
    if np.isfinite(rows).all():
        _, sv, vh = np.linalg.svd(rows, full_matrices=False)
        p = vh[: int((sv > 1e-12 * sv[0]).sum())]
    m = len(p)
    if m == d * d:
        p = np.eye(m, dtype=complex)  # keep entry coordinates
    else:
        c = c @ p.conj().T
    c = c.reshape(len(q), d * m)
    ident = np.eye(d).reshape(-1) @ p.conj().T

    def linearize(bv):
        jt = _gemm_rows(bv[:, q] * bv[:, r], c).reshape(len(bv), d, m)
        return jt, (bv[:, None] @ jt)[:, 0] / 3 - ident

    return p, linearize


def _normal_equations(jt, f):
    """J^H J and J^H F for a block of starts, batch last as `_solve_hpd`
    takes them: (d, d, n) and (d, n).  J^H is formed for a chunk of
    starts at a time, so that it never doubles the block's memory; a
    start's products do not depend on the starts beside it."""
    import numpy as np

    n, d, _ = jt.shape
    gram = np.empty((n, d, d), dtype=complex)
    rhs = np.empty((n, d, 1), dtype=complex)
    for lo in range(0, n, _ORACLE_CHUNK):
        part = slice(lo, lo + _ORACLE_CHUNK)
        jh = jt[part].conj()
        np.matmul(jh, jt[part].transpose(0, 2, 1), out=gram[part])
        np.matmul(jh, f[part, :, None], out=rhs[part])
        del jh  # before the next chunk's is formed
    return gram.transpose(1, 2, 0), rhs[..., 0].T


def _solve_hpd(g, rhs):
    """Solve g x = rhs for a batch of Hermitian positive-definite systems,
    batch last: g is (d, d, n) and rhs (d, n).

    Elimination without pivoting, which a positive-definite g never
    needs.  Every step is elementwise over the batch and each
    back-substitution term is added on its own (a complex sum over an
    axis rounds differently for a batch of one), so a system's solution
    does not depend on the batch it is solved in.  For a batch of one
    numpy may take other elementwise loops, whose complex products round
    differently, so a lone system is solved twice over, as `_gemm_rows`
    does with a lone row.
    """
    import numpy as np

    if rhs.shape[1] == 1:
        return _solve_hpd(np.repeat(g, 2, axis=2), np.repeat(rhs, 2, axis=1))[:, :1]
    d = len(rhs)
    a = np.empty((d, d + 1) + rhs.shape[1:], dtype=complex)
    a[:, :d] = g
    a[:, d] = rhs
    for k in range(d - 1):
        f = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= f[:, None] * a[k, None, k + 1 :]
    x = a[:, d]
    for j in reversed(range(d)):
        x[j] /= a[j, j]
        x[:j] -= a[:j, j] * x[j]
    return x


def _steps_on(f, p, thr):
    """(go, norm): which rows of coordinates f step on, those whose
    F = f @ p, in entries, has a largest modulus that is finite and above
    thr, and each row's |f|_2.

    p has orthonormal rows, so |F|_2 = |f|_2 and max|F_ij| >= |f|_2 / d,
    while rounding moves an entry of f @ p by about m * eps * |f|_2.  A
    row whose |f|_2 is finite and above 2 d thr therefore steps on (above
    1e-150 too, so that |f|_2^2 is a normal number and carries |f|_2 to
    full precision).  Every other row, non-finite, overflowing or near
    thr, is mapped to entries and tested there.  Rows of a GEMM do not
    depend on their neighbours, so each row is decided as the entry test
    decides it.
    """
    import numpy as np

    x = np.ascontiguousarray(f).view(float)
    # |f|_2; einsum does not warn when a square overflows
    norm = np.sqrt(np.einsum("ij,ij->i", x, x))
    d = math.isqrt(p.shape[1])
    go = np.isfinite(norm) & (norm > max(2 * d * thr, 1e-150))
    near = ~go
    if near.any():
        r = np.abs(_gemm_rows(f[near], p)).max(axis=1)
        go[near] = np.isfinite(r) & (r > thr)
    return go, norm


def _gauss_newton(bvec, p, linearize, thr):
    """Take the damped Gauss-Newton steps of a block of starts, the rows of
    bvec, in place.

    A start steps on while `_steps_on` finds its F above thr and its
    |f|_2 has not stalled, for at most _ORACLE_MAX_ITER sweeps; one that
    leaves (converged, non-finite or stalled) keeps its b from then on.
    A stalled start's |f|_2 is at least 1e6 tol, so its final residual
    counts it unconverged, as the sweep cap does.  Each start's steps
    depend on that start alone, so the block it is stepped in does not
    change them.
    """
    import numpy as np

    d = bvec.shape[1]
    floor = _ORACLE_STALL_FLOOR * thr
    pending = np.arange(len(bvec))
    last = np.full(len(pending), np.inf)  # |f|_2 one sweep back
    calm = np.zeros(len(pending), dtype=int)  # stalled sweeps in a row
    for _ in range(_ORACLE_MAX_ITER):
        jt, f = linearize(bvec[pending])
        go, norm = _steps_on(f, p, thr)
        # only finite norms are subtracted: inf - inf would warn
        still = np.isfinite(norm) & (norm >= floor)
        moved = np.abs(norm[still] - last[still])
        still[still] = moved <= _ORACLE_STALL_RTOL * norm[still]
        calm = np.where(still, calm + 1, 0)
        last = norm
        go &= calm < _ORACLE_STALL_SWEEPS
        leaving = not go.all()
        if leaving:
            if not go.any():
                break
            # zeroed in place: copying the other rows out of jt would
            # hold two Jacobians at once
            jt[~go] = 0
            f[~go] = 0
        gram, rhs = _normal_equations(jt, f)
        del jt, f  # the block's Jacobian is not needed for the solve
        if leaving:
            pending, gram, rhs = pending[go], gram[..., go], rhs[:, go]
            last, calm = last[go], calm[go]
        gram[range(d), range(d)] += 1e-12  # damping
        bvec[pending] -= _solve_hpd(gram, rhs).T


def numeric_cubic_oracle(
    basis: list[CMatrix],
    starts: int = 2000,
    tol: float = 1e-9,
    cluster_radius: float = 1e-6,
    seed: int = 0,
    exact_candidates: list[tuple[CycNum, ...]] | None = None,
) -> OracleReport:
    """Multistart Gauss-Newton for S(b)^3 = I with S = sum b_i E_i.

    The E_i are the d matrices of `basis`, as `_basis_matrices` builds
    them (B^i A B); the oracle forms no exact product.  Works in
    double-precision complex arithmetic; converged solutions are
    clustered by max-norm radius and each cluster reports its trace and
    the nearest exact candidate, a coefficient tuple over the same basis.
    Each start is drawn complex standard normal and multiplied by the
    positive real (sqrt(d) / |S(b)^3|_F)^(1/3), so that |S(b)^3|_F =
    |I|_F; one whose S(b)^3 is 0 or not finite stays as drawn.
    Deterministic for a fixed seed.  The basis must hold d matrices of
    size d x d and each exact candidate d coefficients (DimMismatch
    otherwise).

    One loop walks the starts in blocks of _ORACLE_BLOCK: it scales the
    block's starts, runs their Newton sweeps and measures their final
    residual directly, before the next block begins.  Converged solutions
    are taken in the order of `_rounded`, and each joins the first
    cluster centre within cluster_radius or opens a new centre.
    """
    import numpy as np

    if not basis:
        raise DimMismatch("oracle needs d basis matrices of size d, got none")
    d = basis[0].dim
    _check_oracle_options(d, starts, tol, cluster_radius, seed)
    sizes = sorted({mat.dim for mat in basis})
    if len(basis) != d or sizes != [d]:
        got = f"{len(basis)} of sizes {sizes}"
        raise DimMismatch(f"oracle needs {d} basis matrices of size {d}, got {got}")
    cands = exact_candidates or []
    if any(len(cand) != d for cand in cands):
        raise DimMismatch(f"oracle needs exact candidates of {d} coefficients")
    e = np.array([[[x.to_complex() for x in r] for r in m.rows] for m in basis], dtype=complex)
    eflat = e.reshape(d, d * d)  # S = bvec @ eflat, one row per start
    p, linearize = _cubic_jacobian(e)
    rng = np.random.default_rng(seed)
    bvec = rng.standard_normal((starts, d)) + 1j * rng.standard_normal((starts, d))
    ident = np.eye(d).reshape(-1)
    res = np.empty(starts)
    for lo in range(0, starts, _ORACLE_BLOCK):
        part = bvec[lo : lo + _ORACLE_BLOCK]
        # far from every solution J(b) b = 3 S(b)^3 makes the Newton step
        # about b / 3; a positive real factor moves b to where
        # |S(b)^3|_F = |I|_F, a norm taken by hypot, which does not
        # overflow where squares would
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.hypot.reduce(np.abs(_cubes(part, eflat, d)), axis=1)
        ok = np.isfinite(size) & (size > 0)  # else b stays as drawn
        part[ok] *= (d ** (1 / 6) / np.cbrt(size[ok]))[:, None]
        _gauss_newton(part, p, linearize, tol * 0.01)
        # measured directly, so the counts never rest on the coordinates
        res[lo : lo + _ORACLE_BLOCK] = np.abs(_cubes(part, eflat, d) - ident).max(axis=1)
    finite = np.isfinite(res)
    good = finite & (res < tol)
    solutions = bvec[good]
    residuals = res[good]
    centers = np.empty_like(solutions)
    clusters: list[list[int]] = []
    for i in sorted(range(len(solutions)), key=lambda j: _rounded(solutions[j])):
        v = solutions[i]
        dist = np.abs(v - centers[: len(clusters)]).max(axis=1)
        near = np.flatnonzero(dist <= cluster_radius)
        if len(near):
            clusters[near[0]].append(i)
        else:
            centers[len(clusters)] = v
            clusters.append([i])
    cand_vecs = np.array([[c.to_complex() for c in x] for x in cands], dtype=complex)
    cand_vecs = cand_vecs.reshape(len(cands), d)  # (0, d) without candidates
    out = []
    for members in clusters:
        centroid = solutions[members].mean(axis=0)
        dists = np.abs(cand_vecs - centroid).max(axis=1)
        out.append(
            OracleCluster(
                centroid=tuple(complex(x) for x in centroid),
                size=len(members),
                max_residual=float(residuals[members].max()),
                trace=complex((centroid @ eflat).reshape(d, d).trace()),
                nearest_candidate=int(dists.argmin()) if len(dists) else None,
                nearest_distance=float(dists.min()) if len(dists) else None,
            )
        )
    out.sort(key=lambda c: _rounded(c.centroid))
    return OracleReport(
        dim=d,
        starts=starts,
        converged=int(good.sum()),
        diverged=int((~finite).sum()),
        unconverged=int((finite & ~good).sum()),
        tol=tol,
        cluster_radius=cluster_radius,
        seed=seed,
        clusters=out,
    )


def _rounded(v) -> tuple:
    """The order of solutions and of clusters: each coordinate's real and
    imaginary parts rounded to 9 places."""
    return tuple((round(float(x.real), 9), round(float(x.imag), 9)) for x in v)


def _check_oracle_options(d: int, starts: int, tol: float, cluster_radius: float, seed: int):
    """Refuse what the oracle cannot run, before any exact work."""
    if starts < 1:
        raise InvalidOption(f"starts must be at least 1, got {starts}")
    if seed < 0:
        raise InvalidOption(f"seed must be non-negative, got {seed}")
    for name, value in (("tol", tol), ("cluster_radius", cluster_radius)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidOption(f"{name} must be finite and > 0, got {value}")
    if d > 8:
        raise DimMismatch("oracle supports dimensions up to 8")
