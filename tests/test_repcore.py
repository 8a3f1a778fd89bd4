"""Relation verification, irreducibility, tensor products, restriction."""

import gc
import random
from fractions import Fraction

import pytest

from loopbraid import catalog, extend, repcore
from loopbraid.cyclotomic import CycNum, omega
from loopbraid.errors import (
    ConductorMismatch,
    ConstraintViolated,
    DimMismatch,
    MissingGenerator,
    NotAWeakening,
)
from loopbraid.linalg import CMatrix, matrix_rank, solve_linear
from loopbraid.repcore import (
    GroupKind,
    LBRep,
    is_irreducible,
    is_weaker_or_equal,
    relation_holds,
    restrict,
    tensor_product,
    verify,
)
from loopbraid.sampling import draw_tw3, rng_for

from extension_support import l2_equivalence, standard_extensions


def trivial_rep(d=2, target=GroupKind.SLB3):
    ident = CMatrix.identity(d, 1)
    return LBRep(target=target, A=ident, B=ident, S1=ident, S2=ident)


def test_all_identity_images_satisfy_everything():
    rep = trivial_rep()
    report = verify(rep, GroupKind.SLB3)
    assert report.all_hold
    assert report.failing == []


def test_tw3_is_a_braid_representation():
    assert verify(catalog.tw3(1, 2, 3), GroupKind.B3).all_hold


def test_perm3_holds_lb3_and_slb3():
    rep = catalog.perm3(2)
    assert verify(rep, GroupKind.LB3).all_hold
    assert verify(rep, GroupKind.SLB3).all_hold


def test_relation_nesting():
    rep = catalog.perm3(3)
    assert verify(rep, GroupKind.SLB3).all_hold
    for kind in (GroupKind.LB3, GroupKind.VB3, GroupKind.B3, GroupKind.S3):
        assert verify(rep, kind).all_hold


def test_verify_reports_all_failures():
    ident = CMatrix.identity(2, 1)
    bad = CMatrix([[1, 1], [0, 1]], 1)
    rep = LBRep(target=GroupKind.SLB3, A=ident, B=ident, S1=bad, S2=bad)
    report = verify(rep, GroupKind.SLB3)
    assert "Sigma2" in report.failing
    assert report.verdicts["B1"] == "holds"


def test_missing_generator():
    rep = catalog.counterexample6()
    with pytest.raises(MissingGenerator):
        verify(rep, GroupKind.LB3)
    with pytest.raises(MissingGenerator):
        LBRep(target=GroupKind.LB3, A=rep.A, B=rep.B)


def test_mixed_relations_follow_from_standard_shape():
    # braid pair + involutive braid pair with S1 S2 = kAB forces L1 and L2
    rng = rng_for(11)
    for _ in range(10):
        base, _ = draw_tw3(rng)
        pairs = standard_extensions(base.A, base.B)
        assert pairs
        rep, cert = pairs[0]
        assert verify(rep, GroupKind.B3).all_hold
        assert verify(rep, GroupKind.S3).all_hold
        assert rep.S == (rep.A @ rep.B).scalar_mul(cert.k)
        report = verify(rep, GroupKind.LB3)
        assert report.holds("L1") and report.holds("L2")


def test_l2_equivalence_chain():
    rng = rng_for(12)
    built = []
    for _ in range(5):
        base, _ = draw_tw3(rng)
        built.extend(r for r, _ in standard_extensions(base.A, base.B))
    built.append(catalog.perm3(5))
    built.append(catalog.nonstandard_3d(2, 1, 3))
    for rep in built:
        flags = l2_equivalence(rep)
        assert len(set(flags.values())) == 1  # all four agree
        assert flags["a"] == verify(rep, GroupKind.LB3).holds("L2")


def _sigma3_2dim(rng):
    # conjugate the standard 2-dim symmetric group representation
    n = 12
    s1 = CMatrix([[0, 1], [1, 0]], n)
    w = omega(n)
    s = CMatrix.diagonal([w, w * w], n)
    s2 = s1 @ s
    while True:
        g = CMatrix(
            [
                [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))],
                [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))],
            ],
            n,
        )
        if not g.det().is_zero:
            break
    gi = g.inverse()
    return g @ s1 @ gi, g @ s2 @ gi


def test_intertwiner_space_of_2dim_sigma3():
    # solutions of X S1 = S2 X are exactly span{S1 S2, S2 S1 S2}
    rng = random.Random(21)
    for _ in range(8):
        s1, s2 = _sigma3_2dim(rng)
        n = s1.conductor
        rows = []
        for i in range(2):
            for j in range(2):
                row = []
                for k in range(2):
                    for l in range(2):
                        coeff = CycNum.zero(n)
                        if i == k:
                            coeff = coeff + s1.rows[l][j]
                        if l == j:
                            coeff = coeff - s2.rows[i][k]
                        row.append(coeff)
                rows.append(row)
        zero = [CycNum.zero(n)] * 4
        sol, kern = solve_linear(rows, zero)
        assert len(kern) == 2
        span = [v for v in kern]
        targets = [(s1 @ s2).flatten(), (s2 @ s1 @ s2).flatten()]
        for t in targets:
            assert matrix_rank(span + [t]) == 2


def test_irreducibility_examples():
    rep = catalog.counterexample6()
    assert is_irreducible(rep)
    block = LBRep(
        target=GroupKind.B3,
        A=CMatrix.diagonal([1, 2], 1),
        B=CMatrix.diagonal([1, 2], 1),
    )
    assert not is_irreducible(block)
    rep4 = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)
    assert is_irreducible(rep4)


def test_irreducibility_conjugation_invariant():
    rng = random.Random(31)
    rep = catalog.tw3(1, 2, 3)
    g = CMatrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]], rep.conductor)
    gi = g.inverse()
    conj = LBRep(target=GroupKind.B3, A=g @ rep.A @ gi, B=g @ rep.B @ gi)
    assert is_irreducible(rep) == is_irreducible(conj) is True


def test_tensor_with_trivial_is_identity():
    rep = catalog.perm3(2)
    one = CMatrix.identity(1, rep.conductor)
    triv = LBRep(target=GroupKind.SLB3, A=one, B=one, S1=one, S2=one)
    out = tensor_product(rep, triv)
    assert out.A == rep.A and out.S2 == rep.S2


def test_tensor_of_2dim_standard_extensions():
    def build(base):
        one = CycNum.one(3)
        return extend.standard_extension_2d(base.A, base.B, (one, one))

    r1 = build(catalog.tw2(1, -1))
    r2 = build(catalog.tw2(2, 3))
    out = tensor_product(r1, r2)
    assert out.dim == 4
    assert verify(out, GroupKind.LB3).all_hold
    k1 = extend.polynomial_S_solve(r1.A, r1.B, r1.S)[0]
    k2 = extend.polynomial_S_solve(r2.A, r2.B, r2.S)[0]
    k = k1.promote(out.conductor) * k2.promote(out.conductor)
    assert out.S == (out.A @ out.B).scalar_mul(k)


def test_restrict():
    rep = catalog.perm3(2)
    rb = restrict(rep, GroupKind.B3)
    assert rb.S1 is None and verify(rb, GroupKind.B3).all_hold
    rs = restrict(rep, GroupKind.S3)
    assert rs.A is None and verify(rs, GroupKind.S3).all_hold
    rl = restrict(rep, GroupKind.LB3)
    assert verify(rl, GroupKind.LB3).all_hold
    with pytest.raises(NotAWeakening):
        restrict(rl, GroupKind.SLB3)


def test_weaker_or_equal_order_on_all_pairs():
    B3, S3, VB3, LB3, SLB3 = (GroupKind[k] for k in ("B3", "S3", "VB3", "LB3", "SLB3"))
    weaker = {
        B3: {B3},
        S3: {S3},
        VB3: {B3, S3, VB3},
        LB3: {B3, S3, VB3, LB3},
        SLB3: {B3, S3, VB3, LB3, SLB3},
    }
    for target in GroupKind:
        for kind in GroupKind:
            assert is_weaker_or_equal(kind, target) == (kind in weaker[target])


def test_derived_s_is_recomputed():
    rep = catalog.perm3(2)
    assert rep.S == rep.S1 @ rep.S2


def test_b3_target_forbids_s_images():
    from loopbraid.errors import ConstraintViolated

    rep = catalog.perm3(2)
    with pytest.raises(ConstraintViolated):
        LBRep(target=GroupKind.B3, A=rep.A, B=rep.B, S1=rep.S1, S2=rep.S2)


# Each case fails exactly the named relation under SLB3 ("none": all hold).
# S1, S2 swap coordinates (0 1) and (1 2); J is all ones, N = E_{02}.
_P1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
_P2 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
_J = [[1] * 3] * 3
_N = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
_ZERO = [[0] * 3] * 3


def _slb3(a, b, s1, s2):
    a, b, s1, s2 = (CMatrix(m, 1) for m in (a, b, s1, s2))
    return LBRep(target=GroupKind.SLB3, A=a, B=b, S1=s1, S2=s2)


_TWICE_P1 = [[2 * x for x in r] for r in _P1]
_TWICE_P2 = [[2 * x for x in r] for r in _P2]
_ONLY_ONE_FAILS = {
    "none": catalog.perm3(2),
    "B1": _slb3([[-1, -1, 0], [-1, 0, 0], [0, 0, -1]], [[-1, 0, 0], [0, -1, -1], [0, -1, 0]], _P1, _P2),
    "Sigma1": _slb3(_ZERO, _ZERO, [[1, 0, 0], [0, -1, 0], [0, 0, 1]], _P2),
    "Sigma2": _slb3(_J, _J, _TWICE_P1, _TWICE_P2),
    "L1": _slb3(_N, _N, _P1, _P2),
    "L2": _slb3([[-1, -1, -1], [0, 0, 1], [0, 0, -1]], [[-1, 0, 0], [-1, -1, -1], [1, 0, 0]], _P1, _P2),
    "L2prime": _slb3([[-1, -1, -1], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [-1, -1, -1], [0, 1, 0]], _P1, _P2),
}
_KIND_RELATIONS = {
    "B3": {"B1"},
    "S3": {"Sigma1", "Sigma2"},
    "VB3": {"B1", "Sigma1", "Sigma2", "L1"},
    "LB3": {"B1", "Sigma1", "Sigma2", "L1", "L2"},
    "SLB3": {"B1", "Sigma1", "Sigma2", "L1", "L2", "L2prime"},
}


def _direct_verdicts(rep):
    """Every equation evaluated on its own, left to right, nothing shared."""
    a, b, s1, s2 = rep.A, rep.B, rep.S1, rep.S2
    ident = CMatrix.identity(rep.dim, rep.conductor)
    holds = {
        "B1": a @ b @ a == b @ a @ b,
        "Sigma1": s1 @ s2 @ s1 == s2 @ s1 @ s2,
        "Sigma2": s1 @ s1 == ident and s2 @ s2 == ident,
        "L1": s1 @ s2 @ a == b @ s1 @ s2,
        "L2": a @ b @ s1 == s2 @ a @ b,
        "L2prime": b @ a @ s2 == s1 @ b @ a,
    }
    return {rel: "holds" if h else "fails" for rel, h in holds.items()}


@pytest.mark.parametrize("failing", list(_ONLY_ONE_FAILS))
def test_verify_matches_direct_evaluation(failing):
    rep = _ONLY_ONE_FAILS[failing]
    direct = _direct_verdicts(rep)
    assert [r for r, v in direct.items() if v == "fails"] == (
        [] if failing == "none" else [failing]
    )
    for kind, wanted in _KIND_RELATIONS.items():
        report = verify(rep, GroupKind[kind])
        assert report.verdicts == {
            rel: direct[rel] if rel in wanted else "not-applicable" for rel in direct
        }
        assert report.all_hold == (failing not in wanted)
    for rel, verdict in direct.items():
        assert relation_holds(rep.images(), rel) == (verdict == "holds")


def test_second_sigma2_equation_is_checked():
    # S1^2 = I but S2^2 = 4I
    rep = _slb3(_J, _J, _P1, _TWICE_P2)
    assert rep.S1 @ rep.S1 == CMatrix.identity(3, 1)
    assert _direct_verdicts(rep)["Sigma2"] == "fails"
    assert verify(rep, GroupKind.S3).verdicts["Sigma2"] == "fails"
    assert not relation_holds({"S1": rep.S1, "S2": rep.S2}, "Sigma2")


def test_verify_forms_each_product_once(monkeypatch):
    formed, compared = [], []
    matmul, equal = CMatrix.__matmul__, repcore.products_equal

    def counting(self, other):
        formed.append(1)
        return matmul(self, other)

    def comparing(*factors):
        compared.append(1)
        return equal(*factors)

    monkeypatch.setattr(CMatrix, "__matmul__", counting)
    monkeypatch.setattr(repcore, "products_equal", comparing)
    rep = catalog.perm3(2)
    counts = {}
    for kind in ("B3", "S3", "VB3", "LB3", "SLB3"):
        formed.clear()
        compared.clear()
        assert verify(rep, GroupKind[kind]).all_hold
        counts[kind] = (len(formed), len(compared))
    # (formed, compared): one product per distinct factor of two or more
    # letters (AB, S1 S2, BA), one comparison per equation
    assert counts == {"B3": (1, 1), "S3": (1, 3), "VB3": (2, 5), "LB3": (2, 6), "SLB3": (3, 7)}


def test_verify_and_the_slb3_test_leave_nothing_to_collect():
    """Every product that verify and slb3_test form is freed by reference
    counting when nothing reads it: no reference cycle, such as a closure
    that refers to itself, holds one for the cyclic collector."""
    rep = catalog.binomial_rep([1, 2, Fraction(3, 2), 3], 3)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert verify(rep, GroupKind.LB3).all_hold
        assert not extend.slb3_test(rep, "direct")
        assert not extend.slb3_test(rep, "commutator")
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


_I2, _I3 = CMatrix.identity(2, 1), CMatrix.identity(3, 1)


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: LBRep(GroupKind.B3, A=_I2, B=_I3), DimMismatch, "dimension"),
        (
            lambda: LBRep(GroupKind.B3, A=_I2, B=CMatrix.identity(2, 3)),
            ConductorMismatch,
            "conductor",
        ),
        (
            lambda: tensor_product(trivial_rep(), LBRep(GroupKind.B3, A=_I2, B=_I2)),
            ConstraintViolated,
            "target",
        ),
        (
            lambda: tensor_product(
                LBRep(GroupKind.S3, S1=_I2, S2=_I2),
                LBRep(GroupKind.S3, A=_I2, S1=_I2, S2=_I2),
            ),
            MissingGenerator,
            "present images",
        ),
        (lambda: catalog.tw3(1, 2, 3).S, MissingGenerator, "needs both s-generator images"),
    ],
    ids=["LBRep-dim", "LBRep-conductor", "tensor-target", "tensor-images", "S-of-B3"],
)
def test_repcore_refusals(call, error, text):
    with pytest.raises(error, match=text):
        call()
