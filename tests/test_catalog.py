"""Family constructors: displayed-matrix identities and constraints."""

import math
from fractions import Fraction

import pytest

from loopbraid import catalog, sampling
from loopbraid.cyclotomic import CycNum, omega
from loopbraid.errors import (
    ConstraintViolated,
    InvalidBlockCombination,
    NotASquareRoot,
    ZeroEigenvalue,
    ZeroParameter,
)
from loopbraid.linalg import (
    CMatrix,
    algebra_dimension,
    is_proportional,
)
from loopbraid.repcore import GroupKind, verify

from order3_support import eigenprojectors_order3


# -- tw2 ----------------------------------------------------------------------


def test_tw2_family2_displayed_matrices():
    rep = catalog.tw2(1, -1, family=2)
    assert rep.A == CMatrix([[1, 1], [0, -1]], rep.conductor)
    assert rep.B == CMatrix([[-1, 0], [1, 1]], rep.conductor)
    assert verify(rep, GroupKind.B3).all_hold
    ab = rep.A @ rep.B
    assert ab.trace() ** 2 == ab.det()


def test_tw2_family1_triangular():
    w = omega(3)
    rep = catalog.tw2(-w, 1, family=1)
    assert verify(rep, GroupKind.B3).all_hold
    assert rep.A.rows[1][0].is_zero and rep.B.rows[1][0].is_zero  # reducible


def test_tw2_constraints():
    w = omega(3)
    with pytest.raises(ConstraintViolated):
        catalog.tw2(-w, 1, family=2)  # lambda1^2 - l1 l2 + l2^2 = 0
    with pytest.raises(ConstraintViolated):
        catalog.tw2(1, 1, family=1)  # ratio not a cube root
    with pytest.raises(ZeroEigenvalue):
        catalog.tw2(0, 1, family=2)


# -- tw3 ----------------------------------------------------------------------


def test_tw3_trace_identities_123():
    rep = catalog.tw3(1, 2, 3)
    a, b = rep.A, rep.B
    ab = a @ b
    assert ab.trace().is_zero
    assert (b @ b @ a @ b).trace().is_zero
    assert (ab @ ab).trace().is_zero
    assert (b.matpow(4) @ a @ b).trace() == 360  # 6*3*4*5
    assert ab.matpow(3).is_scalar() == 36


def test_tw3_all_ones_cubes_to_identity():
    rep = catalog.tw3(1, 1, 1)
    assert (rep.A @ rep.B).matpow(3).is_identity


def test_tw3_vanishing_factor():
    rep = catalog.tw3(1, -1, 2)
    assert (rep.B.matpow(4) @ rep.A @ rep.B).trace().is_zero


def test_tw3_irreducibility_boundary():
    rep = catalog.tw3(1, 2, 3)  # lambda_i^2 + lambda_j lambda_k != 0 for all
    assert algebra_dimension([rep.A, rep.B]) == 9
    with pytest.raises(ZeroEigenvalue):
        catalog.tw3(1, 0, 2)


# -- tw4 / tw5 -----------------------------------------------------------------


def test_tw4_all_ones():
    rep = catalog.tw4([1, 1, 1, 1], 1)
    ab = rep.A @ rep.B
    assert ab.trace() == -1
    assert ab.matpow(3).is_scalar() == -1
    assert verify(rep, GroupKind.B3).all_hold


def test_tw4_gamma_constraint():
    with pytest.raises(ConstraintViolated):
        catalog.tw4([1, 1, 1, 2], 1)


def test_tw4_ordered_triangular_form():
    rep = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)
    a, b = rep.A, rep.B
    for i in range(4):
        for j in range(4):
            if i > j:
                assert a.rows[i][j].is_zero
            if i < j:
                assert b.rows[i][j].is_zero
        assert b.rows[i][i] == a.rows[3 - i][3 - i]


def test_tw5_all_ones():
    rep = catalog.tw5([1, 1, 1, 1, 1], 1)
    ab = rep.A @ rep.B
    assert ab.matpow(3).is_identity
    assert ab.trace() == -1  # Tr(gamma^-2 AB) with gamma = 1
    assert verify(rep, GroupKind.B3).all_hold


def test_tw5_skew_symmetry_rule():
    g = Fraction(1, 2)
    l5 = g**5 / 6
    rep = catalog.tw5([1, 2, 1, 3, l5], g)
    a, b = rep.A, rep.B
    for i in range(1, 6):
        for j in range(1, 6):
            lhs = b.rows[i - 1][j - 1]
            rhs = a.rows[5 - i][5 - j]
            if (i - j) % 2 == 0:
                assert lhs == rhs
            else:
                assert lhs == -rhs
    # single-entry instance: B_{2,1} = -A_{4,5}
    assert b.rows[1][0] == -a.rows[3][4]


def test_tw5_quoted_identities_generic():
    g = Fraction(1, 2)
    l5 = g**5 / 6
    rep = catalog.tw5([1, 2, 1, 3, l5], g)
    ginv2 = CycNum.from_rational(1 / (g * g), rep.conductor)
    s = (rep.A @ rep.B).scalar_mul(ginv2)
    assert s.matpow(3).is_identity
    assert s.trace() == -1


# -- binomial -------------------------------------------------------------------


def test_binomial_d2_all_ones():
    rep = catalog.binomial_rep([1, 1, 1], 1)
    assert verify(rep, GroupKind.LB3).all_hold
    s = rep.S
    assert s.trace().as_integer() in (-1, 0, 1)
    assert s.matpow(3).is_identity


def test_binomial_d5_cube_identity():
    c = Fraction(3, 2)
    lams = [1, 2, Fraction(1, 2), c / Fraction(1, 2), c / 2, c]
    rep = catalog.binomial_rep(lams, c)
    ab = rep.A @ rep.B
    assert ab.matpow(3).is_scalar() == -(c**3)
    assert verify(rep, GroupKind.LB3).all_hold


def test_binomial_product_formula_and_s_entries():
    # AB collapses to pure binomial data: every lambda product telescopes
    # through lambda_k * lambda_(d-k) = c, leaving
    # (AB)[i][j] = c * (-1)^(d-j) * C(j, d-i), so S = ((-1)^d/c) AB has
    # S[i][j] = (-1)^j C(j, d-i), independent of all parameters.
    c = Fraction(2)
    lams = [1, 3, c / 3, c]  # d = 3
    rep = catalog.binomial_rep(lams, c)
    d = 3
    ab = rep.A @ rep.B
    for i in range(d + 1):
        for j in range(d + 1):
            expected = c * (-1) ** (d - j) * math.comb(j, d - i)
            assert ab.rows[i][j] == CycNum.from_rational(expected, rep.conductor)
    kscale = CycNum.from_rational(Fraction((-1) ** d) / c, rep.conductor)
    s = ab.scalar_mul(kscale)
    for i in range(d + 1):
        for j in range(d + 1):
            expected = (-1) ** j * math.comb(j, d - i)
            assert s.rows[i][j] == CycNum.from_rational(expected, rep.conductor)
    assert s == rep.S


def test_binomial_d1_degenerate():
    rep = catalog.binomial_rep([2, Fraction(1, 2)], 1)
    assert verify(rep, GroupKind.B3).all_hold


def test_binomial_constraint():
    with pytest.raises(ConstraintViolated):
        catalog.binomial_rep([1, 2, 1], 1)  # lambda_1^2 != c


# -- counterexample6 -------------------------------------------------------------


def test_counterexample6_structure():
    rep = catalog.counterexample6()
    assert rep.conductor == 3 and rep.dim == 6
    assert verify(rep, GroupKind.B3).all_hold
    assert rep.A.det() ** 6 == 1
    c = (rep.A @ rep.B).matpow(3).is_scalar()
    assert c is not None and c.is_one
    c2 = (rep.B @ rep.B @ rep.A @ rep.B).matpow(3).is_scalar()
    assert c2 is not None and c2.is_one


def test_counterexample6_algebra_dimension():
    rep = catalog.counterexample6()
    assert algebra_dimension([rep.A, rep.B]) == 36


# -- v1 ---------------------------------------------------------------------------


def test_v1_examples():
    assert verify(catalog.v1_family(1, 0), GroupKind.LB3).all_hold
    rep = catalog.v1_family(2, 5)
    assert verify(rep, GroupKind.LB3).all_hold
    assert rep.S.is_identity
    assert rep.S1 == CMatrix([[0, 1], [1, 0]], rep.conductor)
    rep11 = catalog.v1_family(1, 1)
    assert algebra_dimension(rep11.present()) == 4
    with pytest.raises(ZeroEigenvalue):
        catalog.v1_family(0, 1)


# -- abeq --------------------------------------------------------------------------


def test_abeq_small_blocks():
    rep = catalog.abeq_family(1, 1, 1)
    assert rep.dim == 2
    assert verify(rep, GroupKind.LB3).all_hold
    w = omega(rep.conductor)
    assert rep.A == CMatrix.diagonal([CycNum.one(rep.conductor), w * w], rep.conductor)


def test_abeq_eigenspace_structure():
    for n in (1, 2, 3):
        rep = catalog.abeq_family(n, 4, -2)
        assert verify(rep, GroupKind.LB3).all_hold
        s = rep.S
        assert s @ rep.A == rep.A @ s  # S is a polynomial in A
        p1, pw, pw2 = eigenprojectors_order3(s)
        assert p1.is_zero
        assert pw.rank() == n and pw2.rank() == n


def test_abeq_block_validation():
    with pytest.raises(NotASquareRoot):
        catalog.abeq_family(1, 2, 1)
    with pytest.raises(InvalidBlockCombination):
        catalog.abeq_family(0, 1, 1)


def test_abeq_sign_variants_both_verify():
    for sign in (1, -1):
        rep = catalog.abeq_family(2, 1, 1, sign=sign)
        assert verify(rep, GroupKind.LB3).all_hold


# -- lkb3 ---------------------------------------------------------------------------


def test_lkb3_traceless():
    rep = catalog.lkb3(2, 3)
    ab = rep.A @ rep.B
    assert ab.trace().is_zero
    assert (ab @ ab).trace().is_zero
    assert (rep.B @ rep.B @ rep.A @ rep.B).trace().is_zero
    assert verify(rep, GroupKind.B3).all_hold
    assert len(rep.A.min_poly()) - 1 == 3


def test_lkb3_refuses_a_zero_parameter():
    with pytest.raises(ZeroParameter):
        catalog.lkb3(0, 1)


# -- perm3 --------------------------------------------------------------------------


def test_perm3_verifies_and_is_nonstandard():
    rep = catalog.perm3(2)
    assert verify(rep, GroupKind.SLB3).all_hold
    ab = rep.A @ rep.B
    assert ab.rows[0][2] == 4  # t^2 corner
    assert ab.rows[1][0].is_one and ab.rows[2][1].is_one
    assert not is_proportional(rep.S, ab)


def test_perm3_rejects_degenerate_t():
    with pytest.raises(ZeroParameter):
        catalog.perm3(0)
    with pytest.raises(ConstraintViolated):
        catalog.perm3(1)


def test_binomial_braid_relation_up_to_d6():
    from loopbraid.sampling import rand_scalar, rng_for

    rng = rng_for(51)
    for d in range(1, 7):
        half = [rand_scalar(rng) for _ in range((d + 1) // 2)]
        if d % 2 == 0:
            mid = rand_scalar(rng)
            c = mid * mid
            lams = half + [mid] + [c / x for x in reversed(half)]
        else:
            c = rand_scalar(rng)
            lams = half + [c / x for x in reversed(half)]
        a, b = catalog.binomial_pair(lams, c)
        assert a @ b @ a == b @ a @ b


def test_tw3_irreducibility_boundary_draws():
    from loopbraid.sampling import draw_tw3, rng_for

    rng = rng_for(52)
    checked = 0
    for _ in range(10):
        rep, _ = draw_tw3(rng)
        lams = [rep.A.rows[i][i] for i in range(3)]
        if any(
            (lams[i] ** 2 + lams[j] * lams[k]).is_zero
            for (i, j, k) in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
        ):
            continue
        assert algebra_dimension([rep.A, rep.B]) == 9
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: catalog.tw5([1, 2, 3, 4, 5], 1), ConstraintViolated, "gamma\\^5"),
        (lambda: catalog.binomial_pair([1], 1), ConstraintViolated, "at least two"),
        (lambda: catalog.binomial_pair([1, 2], 3), ConstraintViolated, "lambda_0 \\* lambda_1"),
        (lambda: catalog.nonstandard_3d(1, 2, 3, sign=0), ZeroParameter, "sign"),
        (lambda: catalog.nonstandard_3d(1, 2, 0), ZeroParameter, "z must be nonzero"),
        (lambda: catalog.abeq_family(0, 4, 2), InvalidBlockCombination, "block size"),
        (lambda: catalog.abeq_family(1, 0, 0), ZeroParameter, "mu must be nonzero"),
        (lambda: catalog.abeq_family(1, 4, 3), NotASquareRoot, "sqrt_mu"),
        (lambda: catalog.abeq_family(2, 4, 2, sign=2), InvalidBlockCombination, "sign"),
        (lambda: sampling.standard_extension_sweep("nope", 1, 0), ValueError, "unknown family"),
    ],
    ids=[
        "tw5-gamma",
        "binomial-length",
        "binomial-pairing",
        "nonstandard3-sign",
        "nonstandard3-z",
        "abeq-n",
        "abeq-mu",
        "abeq-sqrt-mu",
        "abeq-sign",
        "sweep-family",
    ],
)
def test_catalog_constraint_refusals(call, error, text):
    with pytest.raises(error, match=text):
        call()
