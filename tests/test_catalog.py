"""Family constructors: displayed-matrix identities and constraints."""

import hashlib
import math
from fractions import Fraction

import pytest

from loopbraid import catalog, sampling
from loopbraid.cyclotomic import CycNum, common_field, make_root_of_unity, omega
from loopbraid.errors import (
    ConstraintViolated,
    InvalidBlockCombination,
    InvalidOption,
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
from loopbraid.serialize import dumps, rep_to_obj

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


EIGENVALUES = "eigenvalue parameters must be nonzero"


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: catalog.tw2(0, 1), ZeroEigenvalue, EIGENVALUES),
        (lambda: catalog.tw2(1, 1, family=3), ConstraintViolated, "family must be 1 or 2"),
        (
            lambda: catalog.tw2(1, 1, family=1),
            ConstraintViolated,
            "family 1 requires -lambda1/lambda2 to be a primitive cube root of unity",
        ),
        (
            lambda: catalog.tw2(-omega(3), 1, family=2),
            ConstraintViolated,
            "family 2 requires lambda1^2 - lambda1*lambda2 + lambda2^2 != 0",
        ),
        (lambda: catalog.tw3(1, 0, 2), ZeroEigenvalue, EIGENVALUES),
        (lambda: catalog.tw4([1, 1, 0, 1], 1), ZeroEigenvalue, EIGENVALUES),
        (
            lambda: catalog.tw4([1, 1, 1, 2], 1),
            ConstraintViolated,
            "need gamma^4 = lambda1*lambda2*lambda3*lambda4",
        ),
        (lambda: catalog.tw5([1, 1, 1, 1, 0], 0), ZeroEigenvalue, EIGENVALUES),
        (
            lambda: catalog.tw5([1, 2, 3, 4, 5], 1),
            ConstraintViolated,
            "need gamma^5 = lambda1*...*lambda5",
        ),
        (
            lambda: catalog.binomial_pair([1], 1),
            ConstraintViolated,
            "need at least two eigenvalue parameters",
        ),
        (lambda: catalog.binomial_pair([0, 1], 0), ZeroEigenvalue, EIGENVALUES),
        (lambda: catalog.binomial_pair([1, 1], 0), ZeroParameter, "c must be nonzero"),
        (
            lambda: catalog.binomial_pair([1, 2], 3),
            ConstraintViolated,
            "need lambda_0 * lambda_1 = c",
        ),
        (
            lambda: catalog.binomial_rep([1, 2, 1], 1),
            ConstraintViolated,
            "need lambda_1 * lambda_1 = c",
        ),
        (lambda: catalog.nonstandard_3d(1, 2, 3, sign=0), ZeroParameter, "sign must be +1 or -1"),
        (lambda: catalog.nonstandard_3d(1, 0, 3), ZeroEigenvalue, EIGENVALUES),
        (lambda: catalog.nonstandard_3d(1, 2, 0), ZeroParameter, "z must be nonzero"),
        (lambda: catalog.v1_family(0, 1), ZeroEigenvalue, "lambda must be nonzero"),
        (
            lambda: catalog.abeq_family(0, 4, 2),
            InvalidBlockCombination,
            "block size n must be >= 1",
        ),
        (
            lambda: catalog.abeq_family(129, 4, 2),
            InvalidBlockCombination,
            "block size n must be <= 128",
        ),
        (lambda: catalog.abeq_family(1, 0, 0), ZeroParameter, "mu must be nonzero"),
        (lambda: catalog.abeq_family(1, 4, 3), NotASquareRoot, "sqrt_mu^2 != mu"),
        (
            lambda: catalog.abeq_family(2, 4, 2, sign=2),
            InvalidBlockCombination,
            "sign must be +1 or -1",
        ),
        (lambda: catalog.lkb3(0, 1), ZeroParameter, "q and t must be nonzero"),
        (lambda: catalog.lkb3(1, 0), ZeroParameter, "q and t must be nonzero"),
        (lambda: catalog.perm3(0), ZeroParameter, "t must be nonzero"),
        (lambda: catalog.perm3(1), ConstraintViolated, "t = 1 is excluded (reducible degenerate)"),
        (
            lambda: sampling.standard_extension_sweep("nope", 1, 0),
            ValueError,
            "unknown family 'nope'",
        ),
        (
            lambda: sampling.standard_extension_sweep("tw2", 1, -5),
            InvalidOption,
            "seed must be non-negative, got -5",
        ),
    ],
    ids=[
        "tw2-eigenvalue",
        "tw2-family",
        "tw2-family1",
        "tw2-family2",
        "tw3-eigenvalue",
        "tw4-eigenvalue",
        "tw4-gamma",
        "tw5-eigenvalue",
        "tw5-gamma",
        "binomial-length",
        "binomial-eigenvalue",
        "binomial-c",
        "binomial-pairing",
        "binomial-middle-pairing",
        "nonstandard3-sign",
        "nonstandard3-eigenvalue",
        "nonstandard3-z",
        "v1-lambda",
        "abeq-n",
        "abeq-n-129",
        "abeq-mu",
        "abeq-sqrt-mu",
        "abeq-sign",
        "lkb3-q",
        "lkb3-t",
        "perm3-zero",
        "perm3-one",
        "sweep-family",
        "sweep-seed",
    ],
)
def test_catalog_constraint_refusals(call, error, text):
    # every refusal in catalog, with its exact type and message
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == text


# -- B is A conjugated by a monomial matrix --------------------------------------


def _reversal(scale):
    """The basis reversal, with scale[i] signed by (-1)^i."""
    return [(-1) ** i * x for i, x in enumerate(scale)], range(len(scale) - 1, -1, -1)


def _tw4_monomial(lams, gamma2):
    l1, l2, l3, l4 = lams
    r = l2 * l3 / gamma2
    return _reversal([l4, l3, r * l2, r * l2 * l3 / l4])


# each braid constructor's P, from its arguments, as (scale, perm) with
# P[i][perm[i]] = scale[i]; written from the formulas, not read off B
MONOMIALS = {
    "tw2": lambda l1, l2, family: ([-l2, l1], range(2)) if family == 1 else _reversal([l1, l2]),
    "tw3": lambda *lams: _reversal([1] * 3),
    "tw4": _tw4_monomial,
    "tw5": lambda lams, gamma: _reversal([1] * 5),
    "binomial_rep": lambda lams, c: _reversal(lams),
    "lkb3": lambda q, t: ([1, q * q, q], (1, 0, 2)),
    "perm3": lambda t: ([1] * 3, (2, 0, 1)),
    "counterexample6": lambda: ([1, 1, 1, -1, -1, -1], range(6)),
}


def _monomial(scale, perm, n):
    """The dense matrix P with P[i][perm[i]] = scale[i] and zeros elsewhere."""
    scale, n = common_field(*scale, extra=n)
    return CMatrix.build(len(scale), n, lambda i, j: scale[i] if j == perm[i] else 0)


# the seeded `sampling` draws that call each braid constructor
DRAWS = {
    "tw2": [sampling.draw_tw2],
    "tw3": [sampling.draw_tw3],
    "tw4": [sampling.draw_tw4],
    "tw5": [sampling.draw_tw5],
    "binomial_rep": [lambda rng, d=d: sampling.draw_binomial(rng, d) for d in range(1, 6)],
    "lkb3": [sampling.draw_lkb3],
    "perm3": [sampling.draw_perm3],
    "counterexample6": [lambda rng: (catalog.counterexample6(), {})],
}


@pytest.mark.parametrize("constructor", sorted(MONOMIALS))
def test_b_is_a_conjugated_by_a_monomial(constructor, monkeypatch):
    # B = P A P^-1, checked as B P == P A with exact products, for the P
    # built from the arguments of each constructor call behind 40 draws
    calls = []
    build = getattr(catalog, constructor)
    monkeypatch.setattr(
        catalog, constructor, lambda *args, **kw: calls.append((args, kw)) or build(*args, **kw)
    )
    for seed in range(40):
        for draw in DRAWS[constructor]:
            rep, _ = draw(sampling.rng_for(seed))
            args, kw = calls.pop()
            p = _monomial(*MONOMIALS[constructor](*args, **kw), rep.conductor)
            assert rep.B @ p == p @ rep.A


# -- pinned representations ------------------------------------------------------


def _param(n, a, b, k):
    """a + b zeta_n^k, nonzero as |a| != |b|; a Fraction at n = 1, so that
    plain rationals are lifted as well."""
    return Fraction(a) + b if n == 1 else a + b * make_root_of_unity(n, k)


def _grid(n):
    s0, s1, s2, s3, s4 = (
        _param(n, *abk)
        for abk in (
            (2, 1, 1),
            (Fraction(1, 3), -1, 7),
            (-3, 2, 5),
            (Fraction(5, 2), 1, 11),
            (1, Fraction(-1, 2), 2),
        )
    )
    w = omega(math.lcm(n, 3))

    def binomial_params(d):
        half = [s0, s1][: (d + 1) // 2]
        c = s4 * s4 if d % 2 == 0 else s3
        mid = [s4] if d % 2 == 0 else []
        return half + mid + [c / x for x in reversed(half)], c

    return {
        "tw2-1": [lambda: catalog.tw2(-w * s0, s0, family=1)],
        "tw2-2": [lambda: catalog.tw2(s0, s1, family=2)],
        "tw3": [lambda: catalog.tw3(s0, s1, s2)],
        "tw4": [lambda: catalog.tw4([s0, s1, s2, s3 * s3 / (s0 * s1 * s2)], s3)],
        "tw5": [lambda: catalog.tw5([s0, s1, s2, s3, s4**5 / (s0 * s1 * s2 * s3)], s4)],
        "binomial_pair": [
            lambda d=d: catalog.binomial_pair(*binomial_params(d)) for d in range(1, 5)
        ],
        "binomial_rep": [
            lambda d=d: catalog.binomial_rep(*binomial_params(d)) for d in range(1, 5)
        ],
        "nonstandard_3d": [
            lambda sg=sg: catalog.nonstandard_3d(s0, s1, s2, sign=sg) for sg in (1, -1)
        ],
        "counterexample6": [catalog.counterexample6] if n == 1 else [],
        "v1_family": [lambda: catalog.v1_family(s0, s1), lambda: catalog.v1_family(s2, 0)],
        "abeq_family": [
            lambda h=h, sg=sg: catalog.abeq_family(h, s4 * s4, s4, sign=sg)
            for h in range(1, 5)
            for sg in (1, -1)
        ],
        "lkb3": [lambda: catalog.lkb3(s0, s1)],
        "perm3": [lambda: catalog.perm3(s2)],
    }


DIGEST_GRID = {
    "tw2-1": "d4f38e7091a99280a52c9ac235df54013fca004a2764a8496f1cca92d14452d5",
    "tw2-2": "ca4169de5993e1d7324a6a62c9a5a415cbf72bff52484a34f055fe739688aaaf",
    "tw3": "3a104de27b4040d3a3b23201be3d225571d0d3035200d3c74f0add5f8aff49b1",
    "tw4": "ecfc3cc29ee6724c085ddbac8032e7265010b82864f8d1f9c88b5e6b8431a4df",
    "tw5": "a1ad857fa0ed582bf9770c8e4244eb86b0e9a0e79a7cbdcbcede945c15321ede",
    "binomial_pair": "401347f06214ef863d5be199e65cfa2a9e88b6ed6752a1777bf7fe34b5b810e8",
    "binomial_rep": "08e9b70624e8e0ccaadfbfc98795b428e10928fd29986e2bc7ecf465495b0614",
    "nonstandard_3d": "28e6aaf48e50e4ced00bf58751b40747359b538593d9a07b5948828c66c7fe89",
    "counterexample6": "4cb62ab53d7da685f9ab759492e8286fa2fd44fde453622956227774bf0de723",
    "v1_family": "a8422ccb247e705deda0b5c35e0fece3f4a1e14415e9e46b4e06bdbb863e097f",
    "abeq_family": "16be162b27e34048e2682f36803703a4536f85dba5805b00279af8bf9d11f676",
    "lkb3": "1bcaab44213896e6c248143a4963e5e8aa0d6020bf0a1e18c0ab9cf75bd01eea",
    "perm3": "6715a4475d2f1bb68091ed5e71e1dad1851d29208cea91514e7d38af193c2404",
}


def _grid_digest(name):
    h = hashlib.sha256()
    for n in (1, 12, 60):
        for build in _grid(n)[name]:
            h.update(dumps(rep_to_obj(build())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGEST_GRID))
def test_catalog_representations_are_pinned(name):
    # sha256 of the wire JSON of every representation over a grid of
    # parameters at N = 1, 12 and 60: a rewrite of a formula moves no byte
    assert _grid_digest(name) == DIGEST_GRID[name]
