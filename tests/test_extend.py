"""Extension machinery: k-search, builders, uniqueness, SLB3/VB3, certification."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbraid import catalog, extend
from loopbraid.cyclotomic import (
    CycNum,
    common_field,
    make_root_of_unity,
    nth_root_in_field,
    omega,
    roots_of_unity,
)
from loopbraid.errors import (
    BadBasisChange,
    BadCandidate,
    ConstraintViolated,
    DimMismatch,
    EigenlineChosen,
    HypothesisUnmet,
    MinPolyMismatch,
    MissingGenerator,
    NoSolution,
    NotOrderThree,
    SingularMatrix,
    WrongForm,
)
from loopbraid.linalg import CMatrix, is_proportional, matrix_rank
from loopbraid.repcore import GroupKind, LBRep, relation_holds, verify
from loopbraid.sampling import (
    draw_binomial,
    draw_tw2,
    draw_tw3,
    draw_tw4,
    draw_tw5,
    rand_rational,
    rand_scalar,
    rng_for,
)

from extension_support import standard_extensions
from order3_support import eigenprojectors_order3


TW4 = ([1, 2, 3, Fraction(2, 3)], 2)  # gamma^2 = 2, k = -1/2
TW5 = ([1, 2, 1, 3, Fraction(1, 192)], Fraction(1, 2))  # gamma = 1/2, k = 4


# -- standard_k_candidates ------------------------------------------------------


def test_k_candidates_tw4_unique():
    rep = catalog.tw4(*TW4)
    res = extend.standard_k_candidates(rep.A, rep.B)
    assert res.k_cubed is not None
    assert len(res.candidates) == 1
    k, m = res.candidates[0]
    assert k == Fraction(-1, 2) and m == 1


def test_k_candidates_tw3_123_requires_bigger_field():
    # k^3 = 1/36 has no root in any cyclotomic field; the search reports a
    # structured empty result carrying the target value of k^3, and
    # suggests no conductor.
    rep = catalog.tw3(1, 2, 3)
    res = extend.standard_k_candidates(rep.A, rep.B)
    assert res.k_cubed is not None
    assert res.candidates == []
    assert res.reason == "not-cyclotomic"
    assert res.k_cubed == Fraction(1, 36)
    assert res.suggested_conductor is None


def test_k_candidates_suggests_only_a_confirmed_conductor():
    # (AB)^3 = w I, so k^3 = w^2: no cube root in Q(zeta_3), but zeta_9^2
    # is one in Q(zeta_9)
    w = omega(3)
    z = CycNum.zero(3)
    a = CMatrix([[z, z, w], [1, z, z], [z, 1, z]], 3)
    res = extend.standard_k_candidates(a, CMatrix.identity(3, 3))
    assert res.candidates == []
    assert res.reason == "no-root-in-field"
    assert res.suggested_conductor == 9
    assert extend.standard_k_candidates(
        a.promote(9), CMatrix.identity(3, 9)
    ).candidates
    # k^3 is no rational times a root of unity, so no field is ruled out,
    # and Q(zeta_36) holds no cube root of it: nothing is suggested
    z12 = make_root_of_unity(12, 1)
    rep = catalog.tw3(z12 + 1, 1, 1)
    res = extend.standard_k_candidates(rep.A, rep.B)
    assert not extend._rational_part_is_noncube(res.k_cubed)
    assert res.candidates == []
    assert (res.reason, res.suggested_conductor) == ("no-root-in-field", None)


def _cube_companion(x: CycNum) -> CMatrix:
    # A with A^3 = x I, so with B = I the search needs k^3 = 1/x
    z = CycNum.zero(x.conductor)
    return CMatrix([[z, z, x], [1, z, z], [z, 1, z]], x.conductor)


@pytest.mark.parametrize(
    "x, suggested",
    [
        (omega(3), 9),  # k^3 = w^2 takes the twist j = 2
        (None, None),  # tw3(1 + zeta12, 1, 1)
        # 3 | N = 6 and k^3 = zeta_6 (2 + zeta_6)^-3 takes the twist j = 1
        ((2 + make_root_of_unity(6)) ** 3 * make_root_of_unity(6, -1), 18),
        (2 + make_root_of_unity(6), None),
    ],
    ids=["w", "tw3-1+z12", "twisted-cube-N6", "2+z6"],
)
def test_k_candidates_conductor_check_matches_the_search_at_3n(x, suggested):
    # the Kummer test in Q(zeta_n) against a cube root searched in Q(zeta_3n)
    if x is None:
        rep = catalog.tw3(make_root_of_unity(12, 1) + 1, 1, 1)
        a, b = rep.A, rep.B
    else:
        a, b = _cube_companion(x), CMatrix.identity(3, x.conductor)
    res = extend.standard_k_candidates(a, b)
    assert res.reason == "no-root-in-field"
    n = common_field(a, b, extra=3)[1]
    in_3n = bool(nth_root_in_field(res.k_cubed.promote(3 * n), 3))
    assert res.suggested_conductor == (3 * n if in_3n else None) == suggested


def test_k_candidates_counterexample_no_integer_trace():
    rep = catalog.counterexample6()
    res = extend.standard_k_candidates(rep.A, rep.B)
    assert res.k_cubed is not None and res.k_cubed.is_one
    assert res.candidates == []
    assert res.reason == "no-integer-trace"


def test_k_candidates_traceless_gives_three():
    rep = catalog.tw3(CycNum.from_rational(1, 3), 2, Fraction(27, 2))
    res = extend.standard_k_candidates(rep.A, rep.B)
    assert len(res.candidates) == 3
    ks = [k for k, _ in res.candidates]
    w = omega(3)
    assert set(ks) == {k * u for k in ks[:1] for u in (CycNum.one(3), w, w * w)}
    assert all(m == 0 for _, m in res.candidates)


def test_k_candidates_cube_not_scalar():
    # A = B = diag(1, 2): (AB)^3 = diag(1, 64) is diagonal but not scalar; a
    # test that read only the off-diagonal entries would take k^3 = 1 and the
    # candidate (1, 5)
    for a in (CMatrix([[1, 1], [0, 1]], 1), CMatrix.diagonal([1, 2])):
        res = extend.standard_k_candidates(a, a)
        assert res.k_cubed is None and res.reason == "cube-not-scalar"
        assert res.candidates == []


@st.composite
def k_search_pairs(draw):
    """(A, B): a tw3 pair with three independent `rand_scalar` eigenvalues
    (`draw_tw3` forces their product to be a cube), or a tw2, tw4 or tw5
    draw, conjugated half the time by a dense unimodular P = U U^T."""
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["tw3", "tw2", "tw4", "tw5"]))
    if family == "tw3":
        rep = catalog.tw3(*(rand_scalar(rng) for _ in range(3)))
    else:
        rep = {"tw2": draw_tw2, "tw4": draw_tw4, "tw5": draw_tw5}[family](rng)[0]
    a, b = rep.A, rep.B
    if draw(st.booleans()):
        d = a.dim
        above = draw(st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d))
        u = CMatrix([[above[i * d + j] if j > i else int(i == j) for j in range(d)]
                     for i in range(d)], a.conductor)
        p = u @ u.transpose()
        a, b = p @ a @ p.inverse(), p @ b @ p.inverse()
    return a, b


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k_search_pairs())
def test_a_search_empty_for_want_of_a_root_leaves_a_traceless_k(pair):
    # the premise of `extend` exiting 2 there: (AB)^3 = cI makes
    # Tr(AB) = mu (m0 + m1 w + m2 w^2) for a cube root mu of c, so a nonzero
    # trace would put k = 1/mu in the field; with none there Tr(AB) = 0, and
    # every cube root k of k^3 gives (kAB)^3 = I with Tr(kAB) = 0
    a, b = pair
    res = extend.standard_k_candidates(a, b)
    if res.reason not in ("not-cyclotomic", "no-root-in-field"):
        return
    ab = a @ b
    assert ab.trace().is_zero
    k = res.k_cubed.to_complex() ** (1 / 3)
    s = k * np.array([[x.to_complex() for x in row] for row in ab.rows])
    assert np.abs(np.linalg.matrix_power(s, 3) - np.eye(a.dim)).max() < 1e-8
    assert abs(np.trace(s)) < 1e-8


# -- the power-trace criterion -----------------------------------------------------


def trace_power_test(a: CMatrix, b: CMatrix, k: CycNum) -> bool:
    """The power-trace form of the existence criterion, the reference for the
    tests below.

    Checks that AB is diagonalizable (squarefree minimal polynomial) and
    that Tr((AB)^l) equals k^-l * m for l <= dim not divisible by 3 (with a
    single integer m) and k^-l * dim for l divisible by 3.
    """
    (a, b, k), n = common_field(a, b, k)
    ab = a @ b
    if not ab.is_diagonalizable():
        return False
    d = a.dim
    m = (k * ab.trace()).as_integer()
    if m is None:
        return False
    kinv = k.inv()
    power = CMatrix.identity(d, n)
    kpow = CycNum.one(n)
    for ell in range(1, d + 1):
        power = power @ ab
        kpow = kpow * kinv
        expected = kpow * (d if ell % 3 == 0 else m)
        if power.trace() != expected:
            return False
    return True


def test_trace_power_test_tw5():
    rep = catalog.tw5(*TW5)
    k = CycNum.from_rational(4, rep.conductor)  # gamma^-2
    assert trace_power_test(rep.A, rep.B, k)
    s = (rep.A @ rep.B).scalar_mul(k)
    assert s.matpow(3).trace() == 5  # Tr((gamma^-2 AB)^3) = dim
    assert not trace_power_test(rep.A, rep.B, k * 2)


def test_trace_power_test_joins_fields():
    # k from a larger field, or a plain rational, meets A and B in one field
    rep = catalog.tw5(*TW5)
    assert rep.conductor == 1
    assert trace_power_test(rep.A, rep.B, CycNum.from_rational(4, 12))
    assert trace_power_test(rep.A, rep.B, 4)
    assert not trace_power_test(rep.A, rep.B, omega(3) * 4)


def test_trace_power_test_rejects_nondiagonalizable():
    j = CMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 1)
    assert not trace_power_test(j, j, CycNum.one(1))


def test_trace_power_test_agrees_with_search():
    rng = rng_for(23)
    for _ in range(5):
        rep, _ = draw_tw4(rng)
        res = extend.standard_k_candidates(rep.A, rep.B)
        for k, _m in res.candidates:
            assert trace_power_test(rep.A, rep.B, k)


# -- build_standard_extension -------------------------------------------------------


def test_build_tw4_default_params():
    rep = catalog.tw4(*TW4)
    pairs = standard_extensions(rep.A, rep.B)
    assert len(pairs) == 1
    built, cert = pairs[0]
    assert verify(built, GroupKind.LB3).all_hold
    assert cert.trace_value == 1
    assert built.S == cert.S
    ident = CMatrix.identity(4, built.conductor)
    assert built.S1 @ built.S1 == ident
    p1, pw, pw2 = eigenprojectors_order3(cert.S)
    assert built.S1 @ p1 == p1 @ built.S1
    assert built.S1 @ pw == pw2 @ built.S1


def test_build_dim1():
    one = CMatrix([[1]], 1)
    rep, _ = extend.build_standard_extension(one, one, CycNum.one(1))
    assert verify(rep, GroupKind.LB3).all_hold
    assert rep.S1.rows[0][0].is_one
    params = extend.default_extension_params(CMatrix.identity(1, 3))
    params = extend.ExtensionParams(M=params.M, G=params.G, a=0, N=params.N)
    rep, _ = extend.build_standard_extension(one, one, CycNum.one(1), params)
    assert rep.S1.rows[0][0] == -1 and rep.S2.rows[0][0] == -1


def test_build_three_candidates_three_reps():
    rep = catalog.tw3(CycNum.from_rational(1, 3), 2, Fraction(27, 2))
    pairs = standard_extensions(rep.A, rep.B)
    assert len(pairs) == 3
    seen = set()
    for built, cert in pairs:
        assert verify(built, GroupKind.LB3).all_hold
        assert cert.trace_value == 0
        seen.add(cert.k)
    assert len(seen) == 3


def test_build_rejects_bad_k():
    rep = catalog.tw4(*TW4)
    with pytest.raises(BadCandidate):
        extend.build_standard_extension(rep.A, rep.B, CycNum.from_rational(7, 1))


def test_build_rejects_bad_basis_change():
    rep = catalog.tw4(*TW4)
    k = CycNum.from_rational(Fraction(-1, 2), 1)
    (built, cert), = standard_extensions(rep.A, rep.B)
    good = cert.params
    bad = extend.ExtensionParams(
        M=CMatrix.identity(4, built.conductor), G=good.G, a=good.a, N=good.N
    )
    with pytest.raises(BadBasisChange):
        extend.build_standard_extension(rep.A, rep.B, k, bad)


def test_each_order_three_s_is_cubed_once(monkeypatch):
    # the eigenspaces of S decide S^3 = I and Tr(S) in Z, so no builder
    # cubes S; the one cube per extend op is the k-search's (AB)^3
    rep = catalog.tw4(*TW4)
    k = CycNum.from_rational(Fraction(-1, 2), 1)
    built, cert = extend.build_standard_extension(rep.A, rep.B, k)
    calls, inner = [], CMatrix.matpow
    monkeypatch.setattr(CMatrix, "matpow", lambda m, e: calls.append(e) or inner(m, e))
    extend.build_standard_extension(rep.A, rep.B, k)
    assert calls == []
    extend.vb3_lift(built, cert.k)
    assert calls == []
    extend.default_extension_params(cert.S)
    assert calls == []
    base = catalog.tw2(1, -1, family=2)
    extend.standard_extension_2d(base.A, base.B, (1, 1))
    assert calls == []


def test_default_params_reject_operators_not_of_order_three():
    w = omega(3)
    with pytest.raises(NotOrderThree):
        extend.default_extension_params(CMatrix.diagonal([1, 2], 3))
    # order three, but the w- and w^2-eigenspaces differ in dimension
    with pytest.raises(NotOrderThree):
        extend.default_extension_params(CMatrix.diagonal([CycNum.one(3), w], 3))


@st.composite
def order_three_operators(draw):
    """(S, l, a, b): S = M diag(1^l, w^a, w^2^b) M^-1 at N = 12, M = L U."""
    n = 12
    l = draw(st.integers(0, 5))
    a = draw(st.integers(0, 5 - l))
    b = draw(st.integers(max(0, 1 - l - a), 5 - l - a))
    d = l + a + b

    def scalar():
        q = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        return make_root_of_unity(n, draw(st.integers(0, n - 1))) * q

    lower = [[scalar() if j < i else int(i == j) for j in range(d)] for i in range(d)]
    upper = [[scalar() if j > i else int(i == j) for j in range(d)] for i in range(d)]
    m = CMatrix(lower, n) @ CMatrix(upper, n)
    w = omega(n)
    diag = CMatrix.diagonal([CycNum.one(n)] * l + [w] * a + [w * w] * b, n)
    return m @ diag @ m.inverse(), l, a, b


@settings(derandomize=True, max_examples=60, deadline=None)
@given(order_three_operators())
def test_eigenspaces_decide_order_three_and_integer_trace(case):
    s, l, a, b = case
    if a == b:
        params = extend.default_extension_params(s)
        assert (params.ell, params.t) == (l, a)
        assert s.trace() == l - a
    else:
        with pytest.raises(NotOrderThree, match=r"Tr\(S\)"):
            extend.default_extension_params(s)
    with pytest.raises(NotOrderThree, match=r"S\^3 != I"):
        extend.default_extension_params(s.scalar_mul(2))


def test_randomized_params_still_verify():
    # any valid parameter choice (M, G, a, N) gives a verified extension
    rep = catalog.tw3(CycNum.from_rational(1, 3), 2, Fraction(27, 2))
    search = extend.standard_k_candidates(rep.A, rep.B)
    k, _ = search.candidates[0]
    (a, b, kp), n = common_field(rep.A, rep.B, k, extra=3)
    s = (a @ b).scalar_mul(kp)
    base = extend.default_extension_params(s)
    g = CMatrix([[2]], n) if base.t == 1 else None
    for aa in range(base.ell + 1):
        params = extend.ExtensionParams(M=base.M, G=g or base.G, a=aa, N=base.N)
        built, _ = extend.build_standard_extension(a, b, kp, params)
        assert verify(built, GroupKind.LB3).all_hold


# -- involution parameter dimension --------------------------------------------------


@pytest.mark.parametrize(
    "ell,t,expected", [(0, 1, 1), (2, 1, 3), (1, 3, 9), (3, 2, 8), (1, 0, 0)]
)
def test_involution_param_dimension(ell, t, expected):
    assert extend.involution_param_dimension(ell, t) == expected


@pytest.mark.parametrize("ell,t", [(2, 1), (3, 2), (3, 0), (4, 1), (1, 3)])
def test_involution_param_dimension_is_the_tangent_rank(ell, t):
    # at each completion S1 of default_extension_params with a given a, the
    # tangent space of {X : X S = S^2 X, X^2 = I} is {T : T S = S^2 T,
    # S1 T + T S1 = 0}; row-major vec(X T Y) = (X kron Y^T) vec(T)
    d, n = ell + 2 * t, 3
    p = CMatrix.build(d, n, lambda i, j: int(i <= j))
    s = p @ extend._diag_pattern(ell, t, n) @ p.inverse()
    base, m_inv = extend._eigenbasis(s)
    ident = CMatrix.identity(d, n)
    span = (ident.kron(s.transpose()) - (s @ s).kron(ident)).rows
    for a in range(ell + 1):
        s1, _ = extend._complete(s, base.M, m_inv, base.ell, a)
        assert extend.s3_completion_check(s, s1)
        tangent = (s1.kron(ident) + ident.kron(s1.transpose())).rows
        rank = matrix_rank([*span, *tangent])
        assert d * d - rank == extend.involution_param_dimension(ell, t, a)
    assert max(
        extend.involution_param_dimension(ell, t, a) for a in range(ell + 1)
    ) == extend.involution_param_dimension(ell, t)


def test_completion_is_m_with_its_columns_moved(monkeypatch):
    # J = diag(N diag(I_a, -I_(l-a)) N^-1, [[0, G], [G^-1, 0]]) for any N
    # and G, built by hand: the completion, with (N, G) folded into M, is
    # S1 = M J M^-1; a completion forms two products and no inverse
    n, ell, t = 3, 3, 1
    d = ell + 2 * t
    p = CMatrix.build(d, n, lambda i, j: int(i <= j))
    s = p @ extend._diag_pattern(ell, t, n) @ p.inverse()
    base, m_inv = extend._eigenbasis(s)
    vandermonde = CMatrix.build(ell, n, lambda i, j: (i + 1) ** j)
    for a in range(ell + 1):
        for nmat, g in ((base.N, base.G), (vandermonde, CMatrix([[2]], n))):
            params = extend.ExtensionParams(M=base.M, G=g, a=a, N=nmat)
            signs = CMatrix.diagonal([1] * a + [-1] * (ell - a), n)
            top, ginv = nmat @ signs @ nmat.inverse(), g.inverse()
            want = [list(r) for r in CMatrix.zero(d, n).rows]
            for i in range(ell):
                want[i][:ell] = top.rows[i]
            want[ell][ell + t], want[ell + t][ell] = g[0, 0], ginv[0, 0]
            # S = kAB with A = S, B = I and k = 1
            rep, _ = extend.build_standard_extension(s, CMatrix.identity(d, n), 1, params)
            assert rep.S1 == base.M @ CMatrix(want, n) @ base.M.inverse()
            assert extend.s3_completion_check(s, rep.S1)
    calls = []
    matmul, inverse = CMatrix.__matmul__, CMatrix.inverse
    monkeypatch.setattr(CMatrix, "__matmul__", lambda x, y: calls.append("@") or matmul(x, y))
    monkeypatch.setattr(CMatrix, "inverse", lambda x: calls.append("inverse") or inverse(x))
    extend._complete(s, base.M, m_inv, base.ell, base.a)
    assert sorted(calls) == ["@", "@"]


@st.composite
def split_order_three(draw):
    """(S, l, t, P, D): S = P D P^-1 for D = diag(I_l, w I_t, w^2 I_t) and a
    unimodular P = L U, at N = 3, 12 or 60, with 1 <= l + 2t <= 6."""
    n = draw(st.sampled_from([3, 12, 60]))
    t = draw(st.integers(0, 3))
    ell = draw(st.integers(int(t == 0), 6 - 2 * t))
    d = ell + 2 * t

    def scalar():
        q = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        return make_root_of_unity(n, draw(st.integers(0, n - 1))) * q

    lower = [[scalar() if j < i else int(i == j) for j in range(d)] for i in range(d)]
    upper = [[scalar() if j > i else int(i == j) for j in range(d)] for i in range(d)]
    p = CMatrix(lower, n) @ CMatrix(upper, n)
    pattern = extend._diag_pattern(ell, t, n)
    return p @ pattern @ p.inverse(), ell, t, p, pattern


@settings(derandomize=True, max_examples=60, deadline=None)
@given(split_order_three())
def test_projector_rows_are_the_inverse_of_m(case):
    # row f of P_u = (I + u^-1 S + u^-2 S^2) / 3 is M^-1's row for the
    # kernel vector of S - uI with its 1 at f; the completion it feeds is
    # M J0 M^-1 for every a
    s, ell, t, p, pattern = case
    n, d = s.conductor, s.dim
    params, m_inv = extend._eigenbasis(s)
    m, inverse = params.M, params.M.inverse()
    assert (params.ell, params.t) == (ell, t)
    assert m_inv == inverse
    for a in range(ell + 1):
        j0 = [[0] * d for _ in range(d)]
        for i in range(ell):
            j0[i][i] = 1 if i < a else -1
        for i in range(ell, ell + t):
            j0[i][i + t] = j0[i + t][i] = 1
        s1, s2 = extend._complete(s, m, m_inv, ell, a)
        assert s1 == m @ CMatrix(j0, n) @ inverse
        assert s2 == s1 @ s
    with pytest.raises(NotOrderThree, match=r"^S\^3 != I$"):
        extend.default_extension_params(s.scalar_mul(2))
    # one eigenvalue moved from 1 to w, or from w to w^2: t_w != t_w2
    w = omega(n)
    moved = [w if ell else w * w, *(pattern[i, i] for i in range(1, d))]
    with pytest.raises(NotOrderThree, match=r"^Tr\(S\) is not a rational integer$"):
        extend.default_extension_params(p @ CMatrix.diagonal(moved, n) @ p.inverse())


# -- s3 completion -------------------------------------------------------------------


def test_s3_completion_examples():
    w = omega(3)
    assert extend.s3_completion_check(
        CMatrix.identity(2, 3), CMatrix([[0, 1], [1, 0]], 3)
    )
    s = CMatrix.diagonal([CycNum.one(3), w, w * w], 3)
    swap23 = CMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]], 3)
    assert extend.s3_completion_check(s, swap23)
    assert not extend.s3_completion_check(s, CMatrix.diagonal([1, 1, -1], 3))
    s2 = swap23 @ s
    ident = CMatrix.identity(3, 3)
    assert swap23 @ s2 @ swap23 == s2 @ swap23 @ s2
    assert s2 @ s2 == ident
    # over Q: a 3-cycle and a transposition, with no omega in the field
    cycle = CMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1)
    assert extend.s3_completion_check(cycle, CMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 1))
    assert not extend.s3_completion_check(cycle, CMatrix.diagonal([1, 1, -1], 1))
    with pytest.raises(NotOrderThree):
        extend.s3_completion_check(CMatrix.diagonal([1, 2], 1), CMatrix.identity(2, 1))


def _projector_completion(s, s1):
    """The eigenprojector form of the S3 completion test: S1^2 = I, S1
    commutes with P_1 and carries P_w to P_w2."""
    (s, s1), n = common_field(s, s1, extra=3)
    p1, pw, pw2 = eigenprojectors_order3(s)
    return (
        s1 @ s1 == CMatrix.identity(s.dim, n)
        and s1 @ p1 == p1 @ s1
        and s1 @ pw == pw2 @ s1
    )


@st.composite
def s3_completion_cases(draw):
    """(S, S1): an order-three S and an S1 that may or may not complete it.

    The completing draws are `_complete` involutions for any a and their
    images -S1 and S1 S; the others, I and sign diagonals, mostly fail."""
    s, ell, a, b = draw(order_three_operators())
    d, n = s.dim, s.conductor
    if a == b and draw(st.booleans()):
        base, m_inv = extend._eigenbasis(s)
        s1, _ = extend._complete(s, base.M, m_inv, base.ell, draw(st.integers(0, ell)))
        return s, draw(st.sampled_from([s1, s1.scalar_mul(-1), s1 @ s]))
    signs = [draw(st.sampled_from([1, -1])) for _ in range(d)]
    return s, draw(st.sampled_from([CMatrix.identity(d, n), CMatrix.diagonal(signs, n)]))


def test_s3_completion_check_is_the_projector_test():
    seen = set()

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(s3_completion_cases())
    def agree(case):
        s, s1 = case
        verdict = extend.s3_completion_check(s, s1)
        assert verdict == _projector_completion(s, s1)
        seen.add(verdict)
        with pytest.raises(NotOrderThree):
            extend.s3_completion_check(s.scalar_mul(2), s1)

    agree()
    assert seen == {True, False}


# -- 2-dimensional route ---------------------------------------------------------------


def test_standard_extension_2d():
    base = catalog.tw2(1, -1, family=2)
    one = CycNum.one(base.conductor)
    rep = extend.standard_extension_2d(base.A, base.B, (one, one))
    assert verify(rep, GroupKind.LB3).all_hold
    s = rep.S
    assert s.matpow(3).is_identity
    assert s == (rep.A @ rep.B).scalar_mul(-(rep.A @ rep.B).trace().inv())
    assert s.trace() == -1


def test_standard_extension_2d_rejects_eigenline():
    base = catalog.tw2(1, -1, family=2)
    (a, b), n = common_field(base.A, base.B, extra=3)
    ab = a @ b
    s = ab.scalar_mul(-ab.trace().inv())
    _, pw, _ = eigenprojectors_order3(s)
    line = next(
        pw.column(j) for j in range(2) if any(not e.is_zero for e in pw.column(j))
    )
    with pytest.raises(EigenlineChosen):
        extend.standard_extension_2d(a, b, line)


def test_standard_extension_2d_swaps_the_line_components():
    # S1 maps the w-component of the chosen line to its w^2-component
    rng = rng_for(11)
    bases = (draw_tw2(rng) for _ in range(12))
    for base in [rep for rep, params in bases if params["family"] == 2]:
        for _ in range(3):
            line = (rand_rational(rng), rand_rational(rng))
            try:
                rep = extend.standard_extension_2d(base.A, base.B, line)
            except EigenlineChosen:
                continue
            assert verify(rep, GroupKind.LB3).all_hold
            _, pw, pw2 = eigenprojectors_order3(rep.S)
            v = tuple(CycNum.from_rational(x, rep.conductor) for x in line)
            assert rep.S1.apply(pw.apply(v)) == pw2.apply(v)
            assert rep.S1.apply(pw2.apply(v)) == pw.apply(v)


def test_standard_extension_2d_shape_checks():
    with pytest.raises(DimMismatch):
        rep = catalog.tw3(1, 2, 3)
        extend.standard_extension_2d(rep.A, rep.B, (CycNum.one(1),) * 3)
    # a braid pair with B singular: S = -B is not of order three
    a, b = CMatrix.identity(2, 1), CMatrix.diagonal([1, 0], 1)
    with pytest.raises(NotOrderThree, match=r"S\^3 != I"):
        extend.standard_extension_2d(a, b, (CycNum.one(1), CycNum.zero(1)))


# -- 3-dimensional criterion -------------------------------------------------------------


@dataclass
class ThreeDimExtension:
    """Outcome of the 3-dimensional traceless criterion."""

    exists: bool
    k_candidates: list
    k_cubed: CycNum


def extension_exists_3d(a: CMatrix, b: CMatrix) -> ThreeDimExtension:
    """The paper's 3-dimensional criterion, the reference for the tests below:
    a standard extension exists iff Tr(AB) = Tr((AB)^2) = 0; k^3 = Det(AB)^-1."""
    if a.dim != 3:
        raise DimMismatch("extension_exists_3d needs 3x3 matrices")
    if a == b:
        raise ConstraintViolated("requires A != B")
    if not relation_holds({"A": a, "B": b}, "B1"):
        raise ConstraintViolated("braid relation fails")
    ab = a @ b
    exists = ab.trace().is_zero and (ab @ ab).trace().is_zero
    k_cubed = ab.det().inv()
    roots = nth_root_in_field(k_cubed, 3) if exists else []
    return ThreeDimExtension(exists=exists, k_candidates=roots, k_cubed=k_cubed)


def test_extension_exists_3d_tw3():
    rep = catalog.tw3(1, 2, 3)
    res = extension_exists_3d(rep.A, rep.B)
    assert res.exists
    assert res.k_cubed == Fraction(1, 36)
    assert res.k_candidates == []


def test_extension_exists_3d_lkb():
    rep = catalog.lkb3(2, 3)
    assert extension_exists_3d(rep.A, rep.B).exists


def test_extension_exists_3d_negative():
    # block sum of a 2-dim pair with a fixed line: Tr(AB) != 0
    two = catalog.tw2(1, 2, family=2)
    z = CycNum.zero(two.conductor)
    one = CycNum.one(two.conductor)
    emb = lambda m: CMatrix(
        [
            [m.rows[0][0], m.rows[0][1], z],
            [m.rows[1][0], m.rows[1][1], z],
            [z, z, one],
        ],
        two.conductor,
    )
    a, b = emb(two.A), emb(two.B)
    res = extension_exists_3d(a, b)
    assert not res.exists


# -- nonstandard 3-dim family ------------------------------------------------------------


def test_nonstandard_3d_generic():
    rep = catalog.nonstandard_3d(1, 1, 2)
    assert verify(rep, GroupKind.SLB3).all_hold
    assert not is_proportional(rep.S, rep.A @ rep.B)
    assert rep.S.matpow(3).is_identity


def test_nonstandard_3d_degenerates_to_standard():
    rep = catalog.nonstandard_3d(8, 1, 2)  # z^3 = lambda1/lambda2
    assert verify(rep, GroupKind.SLB3).all_hold
    assert is_proportional(rep.S, rep.A @ rep.B)


def test_nonstandard_3d_both_signs():
    for sign in (1, -1):
        rep = catalog.nonstandard_3d(2, 1, 3, sign=sign)
        assert verify(rep, GroupKind.SLB3).all_hold


def test_nonstandard_3d_cube_property_random_z():
    rng = rng_for(9)
    for _ in range(5):
        z = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        rep = catalog.nonstandard_3d(2, 1, z)
        assert rep.S.matpow(3).is_identity


# -- polynomial form -----------------------------------------------------------------------


def test_polynomial_solve_standard():
    rep = catalog.tw4(*TW4)
    (built, cert), = standard_extensions(rep.A, rep.B)
    ps = extend.polynomial_S_solve(built.A, built.B, built.S)
    assert ps[0] == cert.k
    assert all(c.is_zero for c in ps[1:])


def test_polynomial_solve_perm3_reassembles():
    rep = catalog.perm3(8)
    ps = extend.polynomial_S_solve(rep.A, rep.B, rep.S)
    assert any(not c.is_zero for c in ps[1:])
    assert extend._combination(ps, extend._basis_matrices(rep.A, rep.B)) == rep.S


def test_polynomial_solve_nonstandard_a1_vanishes():
    rep = catalog.nonstandard_3d(2, 1, 3)
    ps = extend.polynomial_S_solve(rep.A, rep.B, rep.S)
    assert ps[1].is_zero
    assert not ps[2].is_zero


def test_polynomial_solve_min_poly_guard():
    ident = CMatrix.identity(3, 1)
    with pytest.raises(MinPolyMismatch):
        extend.polynomial_S_solve(ident, ident, ident)
    # a singular S too: the hypothesis on B is checked first, which is the
    # text `analyze` reports
    with pytest.raises(MinPolyMismatch):
        extend.polynomial_S_solve(ident, ident, CMatrix.zero(3, 1))


def test_polynomial_solve_refuses_a_singular_s_and_one_outside_the_span():
    rep = catalog.tw3(1, 2, 3)
    with pytest.raises(SingularMatrix):
        extend.polynomial_S_solve(rep.A, rep.B, CMatrix.zero(3, 1))
    # I = p(B) AB would make (AB)^-1 commute with B
    with pytest.raises(NoSolution):
        extend.polynomial_S_solve(rep.A, rep.B, CMatrix.identity(3, 1))


def test_one_cyclicity_check_for_both_users(monkeypatch):
    rep = catalog.abeq_family(3, 4, 2)
    assert not rep.B.is_cyclic()
    with pytest.raises(MinPolyMismatch) as solve:
        extend.polynomial_S_solve(rep.A, rep.B, rep.S)

    def candidates(*args):
        raise AssertionError("candidates built before the hypothesis was checked")

    monkeypatch.setattr(extend, "default_polynomial_candidates", candidates)
    with pytest.raises(MinPolyMismatch) as certify:
        extend.certify_no_extension(rep.A, rep.B, starts=10)
    assert str(solve.value) == str(certify.value)
    assert str(solve.value) == "min poly of B must equal its char poly"


# -- uniqueness linearization ----------------------------------------------------------------


def test_uniqueness_d4_generic():
    rep = catalog.tw4(*TW4)
    lin = extend.uniqueness_linearized(rep.A, rep.B)
    assert (lin.n_unknowns, lin.n_equations) == (9, 12)
    assert lin.rank == 9
    assert lin.verdict == "unique-standard"


def test_uniqueness_d5_generic():
    rep = catalog.tw5(*TW5)
    lin = extend.uniqueness_linearized(rep.A, rep.B)
    assert (lin.n_unknowns, lin.n_equations) == (14, 20)
    assert lin.rank == 14
    assert lin.verdict == "unique-standard"


def test_uniqueness_degenerate_locus_rank_drop():
    # found by a small grid search: the all-ones point drops rank
    rep = catalog.tw4([1, 1, 1, 1], 1)
    lin = extend.uniqueness_linearized(rep.A, rep.B)
    assert lin.rank < lin.n_unknowns
    assert lin.verdict == "indeterminate"


def test_uniqueness_wrong_form():
    rep = catalog.perm3(2)
    with pytest.raises(DimMismatch):
        extend.uniqueness_linearized(rep.A, rep.B)
    a = CMatrix.identity(4, 1)
    with pytest.raises(WrongForm):
        extend.uniqueness_linearized(a, a)


def test_skew_triangular_shapes_of_extensions():
    # AB, S, BSA skew lower; S^2, (BSA)^2 skew upper
    for rep, k in (
        (catalog.tw4(*TW4), None),
        (catalog.tw5(*TW5), None),
    ):
        (built, cert), = standard_extensions(rep.A, rep.B)
        d = built.dim
        ab = built.A @ built.B
        s = built.S
        bsa = built.B @ s @ built.A
        for m in (ab, s, bsa):
            for i in range(d):
                for j in range(d):
                    if i + j < d - 1:
                        assert m.rows[i][j].is_zero
        for m in (s @ s, bsa @ bsa):
            for i in range(d):
                for j in range(d):
                    if i + j > d - 1:
                        assert m.rows[i][j].is_zero


# -- SLB3 tests ---------------------------------------------------------------------------------


def test_slb3_perm3_both_routes():
    rep = catalog.perm3(8)
    assert extend.slb3_test(rep, "direct")
    assert extend.slb3_test(rep, "commutator")


def test_slb3_2dim_iff_trace_b_zero():
    one12 = CycNum.one(12)
    for lams, expected in (((1, -1), True), ((1, 2), False), ((3, -3), True)):
        base = catalog.tw2(*lams, family=2)
        rep = extend.standard_extension_2d(
            base.A, base.B, (CycNum.one(base.conductor), CycNum.one(base.conductor))
        )
        assert verify(rep, GroupKind.LB3).all_hold
        assert extend.slb3_test(rep, "direct") is expected
        assert (rep.B.trace().is_zero) is expected


def test_slb3_commutator_route_hypotheses():
    rep = catalog.abeq_family(3, 1, 1)  # repeated companion blocks: min != char
    with pytest.raises(HypothesisUnmet):
        extend.slb3_test(rep, "commutator")


def test_slb3_routes_agree_when_applicable():
    rng = rng_for(17)
    for _ in range(5):
        base, _ = draw_tw3(rng)
        pairs = standard_extensions(base.A, base.B)
        rep = pairs[0][0]
        if rep.A.min_poly() != rep.A.char_poly():
            continue
        try:
            commutator = extend.slb3_test(rep, "commutator")
        except HypothesisUnmet:
            continue
        assert commutator == extend.slb3_test(rep, "direct")


# -- VB3 lift ------------------------------------------------------------------------------------


def test_vb3_lift_of_standard_extension():
    rep = catalog.tw4(*TW4)
    (built, cert), = standard_extensions(rep.A, rep.B)
    lifted = extend.vb3_lift(built, cert.k)
    assert verify(lifted, GroupKind.VB3).all_hold
    k = cert.k.promote(lifted.conductor)
    expected = (lifted.B @ lifted.B @ lifted.A @ lifted.B).scalar_mul(k * k)
    assert lifted.S == expected  # new S = k^2 B^2 AB
    assert lifted.S.trace() == k * (lifted.A @ lifted.B).trace()  # Tr(kAB)


def test_vb3_lift_perm3():
    rep = catalog.perm3(8)  # t = 8 so k = 1/4 exists in the field
    res = extend.standard_k_candidates(rep.A, rep.B)
    assert res.candidates
    k = next(k for k, _ in res.candidates if k.is_rational)
    lifted = extend.vb3_lift(rep, k)
    assert verify(lifted, GroupKind.VB3).all_hold
    assert lifted.S.trace() == k.promote(lifted.conductor) * (
        lifted.A @ lifted.B
    ).trace()


def test_vb3_lift_accepts_exactly_the_standard_candidates():
    # for a standard S' = k0 AB, k B^2 S' completes iff k is a candidate
    rng = rng_for(29)
    bases = [draw(rng)[0] for draw in (draw_tw2, draw_tw3, draw_tw4) * 3]
    cases = [
        (built, cert.k)
        for base in bases
        for built, cert in standard_extensions(base.A, base.B)
    ]
    perm = catalog.perm3(8)
    cases.append((perm, extend.standard_k_candidates(perm.A, perm.B).candidates[0][0]))
    assert len(cases) >= 6
    for rep, k0 in cases:
        n = extend.vb3_lift(rep, k0).conductor
        a, b = rep.A.promote(n), rep.B.promote(n)
        good = {k for k, _ in extend.standard_k_candidates(a, b).candidates}
        for u in roots_of_unity(n):
            k = u * k0.promote(n)
            if k in good:
                assert verify(extend.vb3_lift(rep, k), GroupKind.VB3).all_hold
            else:
                with pytest.raises(BadCandidate):
                    extend.vb3_lift(rep, k)


def test_vb3_lift_bad_candidate():
    rep = catalog.perm3(8)
    with pytest.raises(BadCandidate):
        extend.vb3_lift(rep, CycNum.from_rational(7, 1))


# -- certification ---------------------------------------------------------------------------------


def test_certify_counterexample_small_oracle():
    rep = catalog.counterexample6()
    report = extend.certify_no_extension(rep.A, rep.B, starts=400, seed=3)
    assert report.exact_steps_pass
    assert report.all_traces_non_integer
    for v in report.candidates:
        assert not v.trace_is_real  # stronger than non-integer
    assert report.oracle_exhaustive
    assert report.verdict.startswith("no extension")


def test_certify_tw4_fails_at_integer_trace():
    rep = catalog.tw4(*TW4)
    report = extend.certify_no_extension(rep.A, rep.B, starts=100, seed=0)
    assert not report.all_traces_non_integer
    assert "integer trace" in report.verdict


def test_certify_without_candidates_claims_nothing():
    # k^3 = 1/36 has no cube root in Q(zeta_3): there is no exact candidate,
    # which says nothing about whether an extension exists
    rep = catalog.tw3(1, 2, 3)
    report = extend.certify_no_extension(rep.A, rep.B, starts=50, seed=1)
    assert report.candidates == []
    assert report.verdict == (
        "inconclusive: no exact candidate (no cube root of (AB)^-3 in Q(zeta_3))"
    )


def test_certify_reports_a_cluster_no_candidate_matches(monkeypatch):
    rep = catalog.counterexample6()
    cands = extend.default_polynomial_candidates
    monkeypatch.setattr(extend, "default_polynomial_candidates", lambda basis: cands(basis)[1:])
    report = extend.certify_no_extension(rep.A, rep.B, starts=200, seed=3)
    assert len(report.candidates) == 5
    assert report.exact_steps_pass and report.all_traces_non_integer
    assert not report.oracle_exhaustive
    assert report.verdict == "inconclusive: oracle found unmatched solution clusters"


def test_certify_verdict_when_a_candidate_fails_its_structure_checks(monkeypatch):
    rep = catalog.counterexample6()
    cands = extend.default_polynomial_candidates

    def doubled_first(basis):
        first, *rest = cands(basis)
        return [tuple(c + c for c in first), *rest]

    monkeypatch.setattr(extend, "default_polynomial_candidates", doubled_first)
    report = extend.certify_no_extension(rep.A, rep.B, starts=50, seed=3)
    assert not report.exact_steps_pass and report.all_traces_non_integer
    assert report.verdict == "inconclusive: candidate structure checks failed"


def _promoted_basis(rep):
    """The S-space basis of the omega-promoted pair, as `certify` builds it."""
    (a, b), n = common_field(rep.A, rep.B, extra=3)
    return a, b, extend._basis_matrices(a, b)


def _n12_pair():
    z12 = make_root_of_unity(12, 1)
    return catalog.tw3(z12, z12**2, z12**9)


@pytest.mark.parametrize("rep", [catalog.counterexample6(), _n12_pair()], ids=["c6", "n12"])
def test_certify_candidates_come_in_a_fixed_order(rep):
    # k0 is the first sorted cube root of k^3 = (AB)^-3; for q = 1, w, w^2
    # in turn: q k0 on E_0, then q k0^2 on E_2.  Each oracle cluster names
    # its nearest candidate by index, so the order is part of the report.
    a, b, basis = _promoted_basis(rep)
    d, n = a.dim, a.conductor
    k_cubed = (a @ b).matpow(3).rows[0][0].inv()
    k0 = nth_root_in_field(k_cubed, 3)[0]
    w, zero = omega(n), CycNum.zero(n)
    expected = []
    for q in (CycNum.one(n), w, w * w):
        expected.append(tuple(q * k0 if i == 0 else zero for i in range(d)))
        expected.append(tuple(q * k0 * k0 if i == 2 else zero for i in range(d)))
    assert extend.default_polynomial_candidates(basis) == expected
    report = extend.certify_no_extension(rep.A, rep.B, starts=20, seed=0)
    assert [v.coefficients for v in report.candidates] == expected


def _k_search_pairs():
    yield catalog.counterexample6()
    yield _n12_pair()
    yield catalog.tw3(1, 2, 3)  # no cube root in the field: both lists empty
    yield catalog.tw3(-4, -4, -4)  # N = 1 and Tr(AB) = 0: three k's with omega
    for draw in (draw_tw3, draw_tw4, draw_tw5, draw_binomial):
        rng = rng_for(5)
        for _ in range(6):
            yield draw(rng)[0]


def test_extend_and_certify_take_k_from_one_search():
    checked = 0
    for rep in _k_search_pairs():
        a, b = common_field(rep.A, rep.B, extra=3)[0]
        if not b.is_cyclic():
            continue
        basis = extend._basis_matrices(a, b)
        cands = extend.default_polynomial_candidates(basis)
        cube = basis[0].matpow(3)
        slot0 = [c[0] for c in cands if not c[0].is_zero]
        for k in slot0:
            # k^3 (AB)^3 = I, read off the definition
            assert cube.scalar_mul(k * k * k) == CMatrix.identity(a.dim, a.conductor)
        integer = [
            c[0]
            for c in cands
            if not c[0].is_zero
            and extend._combination(c, basis).trace().as_integer() is not None
        ]
        # the same k's; certify lists them as q k0, the search in root order.
        # The search is given the pair as it comes: it adjoins omega itself
        search = extend.standard_k_candidates(rep.A, rep.B)
        assert len(integer) == len(search.candidates)
        assert set(integer) == {k for k, _ in search.candidates}
        checked += 1
    assert checked == 28


def test_certify_candidates_form_no_product_with_a_or_b(monkeypatch):
    a, b, basis = _promoted_basis(catalog.counterexample6())
    matmul = CMatrix.__matmul__
    operands = []

    def recording(x, y):
        operands.extend((x, y))
        return matmul(x, y)

    monkeypatch.setattr(CMatrix, "__matmul__", recording)
    cands = extend.default_polynomial_candidates(basis)
    assert len(cands) == 6
    assert not any(m == a or m == b for m in operands)


def test_certify_min_poly_guard():
    ident = CMatrix.identity(2, 3)
    with pytest.raises(MinPolyMismatch):
        extend.certify_no_extension(ident, ident)


# -- structural properties ---------------------------------------------------------------------------


def test_generic_3dim_extensions_are_standard():
    # with min poly = char poly, (AB)^3 scalar, no eigenvalue negation, every
    # extension our machinery produces is proportional to AB
    rng = rng_for(29)
    checked = 0
    for _ in range(8):
        base, _ = draw_tw3(rng)
        lams = [base.A.rows[i][i] for i in range(3)]
        if any((lams[i] + lams[j]).is_zero for i in range(3) for j in range(i + 1, 3)):
            continue
        if base.A.min_poly() != base.A.char_poly():
            continue
        for rep, _cert in standard_extensions(base.A, base.B):
            assert is_proportional(rep.S, rep.A @ rep.B)
            checked += 1
    assert checked > 0


def test_finitely_many_slb3_clusters_stable():
    # bounded finiteness evidence: integer-trace clusters
    # of the cubic oracle do not multiply when starts double
    rep = catalog.tw3(CycNum.from_rational(1, 3), 2, Fraction(27, 2))

    def integer_trace_clusters(starts):
        report = extend.numeric_cubic_oracle(
            extend._basis_matrices(rep.A, rep.B), starts=starts, seed=5
        )
        count = 0
        for c in report.clusters:
            if abs(c.trace.imag) < 1e-6 and abs(c.trace.real - round(c.trace.real)) < 1e-6:
                count += 1
        return count

    # the solution set {q k AB} u {q k^2 B^2 AB} has six members, all with
    # trace 0: more starts may find more of them but never beyond six
    small, large = integer_trace_clusters(300), integer_trace_clusters(600)
    assert small <= large <= 6


def test_traceless_3dim_extension_is_pure_multiple():
    # tw3 draws with min poly = char poly and Tr(B^4 AB) != 0: S is a pure
    # multiple of AB, so the polynomial form is (a_0, 0, 0)
    rng = rng_for(37)
    checked = 0
    for _ in range(8):
        base, _ = draw_tw3(rng)
        lams = [base.A.rows[i][i] for i in range(3)]
        if any(
            (lams[i] ** 2 + lams[j] * lams[k]).is_zero
            for (i, j, k) in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
        ):
            continue
        if (base.B.matpow(4) @ base.A @ base.B).trace().is_zero:
            continue
        if base.B.min_poly() != base.B.char_poly():
            continue
        for rep, _cert in standard_extensions(base.A, base.B):
            ps = extend.polynomial_S_solve(rep.A, rep.B, rep.S)
            assert not ps[0].is_zero
            assert all(c.is_zero for c in ps[1:])
            checked += 1
    assert checked > 0


def test_trace_rigidity_tw4_tw5():
    # every extension the toolkit's own search finds has Tr(S) = 1 (dim 4)
    # and Tr(S) = -1 (dim 5): exact candidates all carry that integer, and
    # every near-integer-trace oracle cluster sits at the same value
    for draw, expected, draws_seed in ((draw_tw4, 1, 41), (draw_tw5, -1, 42)):
        rng = rng_for(draws_seed)
        rep, _ = draw(rng)
        res = extend.standard_k_candidates(rep.A, rep.B)
        assert res.candidates
        for _k, m in res.candidates:
            assert m == expected
        report = extend.numeric_cubic_oracle(
            extend._basis_matrices(rep.A, rep.B), starts=300, seed=1
        )
        for c in report.clusters:
            if abs(c.trace.imag) < 1e-6 and abs(c.trace.real - round(c.trace.real)) < 1e-6:
                assert round(c.trace.real) == expected


def test_finitely_many_slb3_clusters_tw4():
    rng = rng_for(43)
    rep, _ = draw_tw4(rng)
    report = extend.numeric_cubic_oracle(
        extend._basis_matrices(rep.A, rep.B), starts=400, seed=6
    )
    integral = [
        c
        for c in report.clusters
        if abs(c.trace.imag) < 1e-6 and abs(c.trace.real - round(c.trace.real)) < 1e-6
    ]
    assert len(integral) <= 6


_I1, _I2, _I3 = (CMatrix.identity(d, 1) for d in (1, 2, 3))
_JORDAN = CMatrix([[1, 1], [0, 1]], 1)  # cyclic, and (J^2)^3 is not scalar
_DIAG12 = CMatrix.diagonal([1, 2], 1)
# AB = the flip is skew lower triangular, and (AB)^2 = I is not skew upper
_FLIP4 = CMatrix.build(4, 1, lambda i, j: 1 if i + j == 3 else 0)


@pytest.mark.parametrize(
    "call, error, text",
    [
        # S = kAB = I: l + 2t = 1 does not tile dimension 3; a = 2 > l = 1
        (
            lambda: extend.build_standard_extension(
                _I3, _I3, 1, extend.ExtensionParams(_I3, None, 0, _I1)
            ),
            BadBasisChange,
            "tile",
        ),
        (
            lambda: extend.build_standard_extension(
                _I1, _I1, 1, extend.ExtensionParams(_I1, None, 2, _I1)
            ),
            BadBasisChange,
            "0 <= a <= l",
        ),
        # S = I does not intertwine A = diag(1, 2) with B = I
        (
            lambda: extend.vb3_lift(
                LBRep(GroupKind.LB3, A=_DIAG12, B=_I2, S1=_I2, S2=_I2), 1
            ),
            ConstraintViolated,
            "SA = BS",
        ),
        (
            lambda: extend.slb3_test(
                LBRep(GroupKind.LB3, A=_JORDAN, B=_JORDAN, S1=_I2, S2=_I2), "commutator"
            ),
            HypothesisUnmet,
            "scalar",
        ),
        (lambda: extend.slb3_test(catalog.perm3(8), "bogus"), ValueError, "unknown route"),
        (lambda: extend.slb3_test(catalog.tw3(1, 2, 3), "direct"), MissingGenerator, "S1 and S2"),
        (
            lambda: extend.slb3_test(catalog.tw3(1, 2, 3), "commutator"),
            MissingGenerator,
            "S1 and S2",
        ),
        (
            lambda: extend.uniqueness_linearized(_FLIP4, CMatrix.identity(4, 1)),
            WrongForm,
            "\\(AB\\)\\^2",
        ),
        (
            lambda: extend.default_polynomial_candidates([_JORDAN, _JORDAN]),
            ConstraintViolated,
            "scalar",
        ),
        (lambda: extend.standard_extension_2d(_I3, _I3, (1, 1, 1)), DimMismatch, "2x2"),
        (lambda: extend.standard_extension_2d(_I2, _I2, (1, 1)), ConstraintViolated, "A != B"),
        (
            lambda: extend.standard_extension_2d(_DIAG12, _JORDAN, (1, 1)),
            ConstraintViolated,
            "braid relation",
        ),
        (lambda: extend.involution_param_dimension(-1, 0), ValueError, "nonnegative"),
        (lambda: extend.involution_param_dimension(2, 1, 3), ValueError, "0 <= a <= l"),
    ],
    ids=[
        "block-tiling",
        "block-a",
        "vb3-intertwining",
        "slb3-commutator-cube",
        "slb3-route",
        "slb3-direct-no-s",
        "slb3-commutator-no-s",
        "uniqueness-square",
        "poly-candidates-cube",
        "2d-dimension",
        "2d-equal",
        "2d-braid",
        "involution-negative-block",
        "involution-a",
    ],
)
def test_extend_refusals(call, error, text):
    with pytest.raises(error, match=text):
        call()
