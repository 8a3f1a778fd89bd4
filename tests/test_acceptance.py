"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every relation and identity check below is exact (zero tolerance); the
only floating-point component is the numeric exhaustiveness oracle of
criterion 4, run at tol 1e-9 / cluster radius 1e-6 with >= 2000 starts.
Each test prints a one-line PASS summary once its assertions hold.
"""

import random
from fractions import Fraction

import pytest

from loopbraid import catalog, extend, sampling
from loopbraid.cyclotomic import CycNum
from loopbraid.linalg import (
    CMatrix,
    algebra_dimension,
    is_proportional,
)
from loopbraid.repcore import GroupKind, verify

from extension_support import l2_equivalence, standard_extensions
from order3_support import eigenprojectors_order3
from poly_support import eval_at

DRAWS = 25

FAMILY_TARGETS = {
    "tw2": GroupKind.B3,
    "tw3": GroupKind.B3,
    "tw4": GroupKind.B3,
    "tw5": GroupKind.B3,
    "binomial": GroupKind.LB3,
    "v1": GroupKind.LB3,
    "abeq": GroupKind.LB3,
    "lkb3": GroupKind.B3,
    "perm3": GroupKind.SLB3,
}


def _draw(family, rng):
    if family == "binomial":
        return sampling.draw_binomial(rng, rng.randint(1, 5))
    if family == "abeq":
        return sampling.draw_abeq(rng, n_max=3)
    return sampling.draw_family(family, rng)


@pytest.fixture(scope="module")
def extension_corpus():
    """25 standard extensions per family of criterion 3, built once."""
    corpus = {}
    rng = sampling.rng_for(2024)
    for family in ("tw2", "tw3", "tw4", "tw5", "binomial"):
        entries = []
        for _ in range(DRAWS):
            rep, params = _draw(family, rng)
            if family == "binomial":
                # constructor already embeds its standard extension
                search = extend.standard_k_candidates(rep.A, rep.B)
                assert search.candidates, (family, params)
                k, _ = search.candidates[0]
                pairs = [extend.build_standard_extension(rep.A, rep.B, k)]
            else:
                pairs = standard_extensions(rep.A, rep.B)
            assert pairs, (family, params)
            entries.append((rep, pairs))
        corpus[family] = entries
    return corpus


def test_criterion_1_relation_suites():
    rng = sampling.rng_for(101)
    total = 0
    for family, target in FAMILY_TARGETS.items():
        for _ in range(DRAWS):
            rep, params = _draw(family, rng)
            assert rep.target == target, (family, params)
            report = verify(rep, target)
            assert report.all_hold, (family, params, report.failing)
            total += 1
    print(f"\n[PASS] criterion 1: relation suites exact for {total} draws "
          f"({len(FAMILY_TARGETS)} families x {DRAWS})")


def test_criterion_2_trace_and_cube_identities():
    rng = sampling.rng_for(102)
    for _ in range(DRAWS):
        rep, params = sampling.draw_tw3(rng)
        a, b = rep.A, rep.B
        ab = a @ b
        lams = [a.rows[i][i] for i in range(3)]
        assert ab.trace().is_zero
        assert (b @ b @ ab).trace().is_zero
        assert (ab @ ab).trace().is_zero
        expected = (
            lams[0] * lams[1] * lams[2]
            * (lams[0] + lams[1]) * (lams[0] + lams[2]) * (lams[1] + lams[2])
        )
        assert (b.matpow(4) @ ab).trace() == expected
        prod = lams[0] * lams[1] * lams[2]
        assert ab.matpow(3) == CMatrix.identity(3, rep.conductor).scalar_mul(prod * prod)
    for _ in range(DRAWS):
        l1, l2, l3, g2 = (sampling.rand_scalar(rng) for _ in range(4))
        l4 = g2 * g2 / (l1 * l2 * l3)
        rep = catalog.tw4([l1, l2, l3, l4], g2)
        ab = rep.A @ rep.B
        g2p = g2.promote(rep.conductor)
        assert ab.trace() == -g2p
        assert ab.matpow(3) == CMatrix.identity(4, rep.conductor).scalar_mul(-(g2p**3))
    for _ in range(DRAWS):
        l1, l2, l3, l4, g = (sampling.rand_scalar(rng) for _ in range(5))
        l5 = g**5 / (l1 * l2 * l3 * l4)
        rep = catalog.tw5([l1, l2, l3, l4, l5], g)
        ab = rep.A @ rep.B
        gp = g.promote(rep.conductor)
        s = ab.scalar_mul((gp * gp).inv())
        assert s.matpow(3).is_identity
        assert s.trace() == -1
    for _ in range(DRAWS):
        rep, params = sampling.draw_tw2(rng)
        ab = rep.A @ rep.B
        assert ab.trace() ** 2 == ab.det()
    print(f"\n[PASS] criterion 2: tw3/tw4/tw5 trace-cube identities and "
          f"2-dim Tr(AB)^2 = Det(AB), {4 * DRAWS} draws, exact")


def test_criterion_3_standard_extension_completeness(extension_corpus):
    count = 0
    for family, entries in extension_corpus.items():
        for rep, pairs in entries:
            assert len(pairs) >= 1
            for built, cert in pairs:
                report = verify(built, GroupKind.LB3)
                assert report.all_hold, (family, report.failing)
                k = cert.k
                assert built.S == (built.A @ built.B).scalar_mul(k)
                assert cert.S.trace().as_integer() == cert.trace_value
                count += 1
    print(f"\n[PASS] criterion 3: every tw2/tw3/tw4/tw5/binomial draw extends; "
          f"{count} certificates verified exactly")


def test_criterion_4_counterexample():
    rep = catalog.counterexample6()
    assert algebra_dimension([rep.A, rep.B]) == 36
    search = extend.standard_k_candidates(rep.A, rep.B)
    assert search.candidates == []
    report = extend.certify_no_extension(
        rep.A, rep.B, starts=2000, tol=1e-9, cluster_radius=1e-6, seed=0
    )
    assert report.exact_steps_pass
    assert report.all_traces_non_integer
    assert report.oracle_exhaustive
    assert report.oracle.starts >= 2000
    assert len(report.candidates) == 6
    assert report.verdict.startswith("no extension")
    matched = {c.nearest_candidate for c in report.oracle.clusters}
    print(f"\n[PASS] criterion 4: algebra dim 36, no k-candidates, verdict "
          f"{report.verdict!r}; {report.oracle.converged} converged starts in "
          f"{len(report.oracle.clusters)} clusters covering candidates {sorted(matched)}")


def test_criterion_5_uniqueness_linearization(extension_corpus):
    rng = sampling.rng_for(105)
    for family, n_d, dim in (("tw4", 9, 4), ("tw5", 14, 5)):
        for _ in range(10):
            rep, params = sampling.draw_family(family, rng)
            lin = extend.uniqueness_linearized(rep.A, rep.B)
            assert lin.n_unknowns == n_d
            assert lin.n_equations == dim * dim - dim
            assert lin.rank == n_d, (family, params)
            assert lin.verdict == "unique-standard"
    checked = 0
    for family in ("tw4", "tw5"):
        for rep, pairs in extension_corpus[family]:
            for built, cert in pairs:
                ps = extend.polynomial_S_solve(built.A, built.B, built.S)
                assert not ps[0].is_zero
                assert all(c.is_zero for c in ps[1:])
                checked += 1
    print(f"\n[PASS] criterion 5: rank(M_4) = 9 and rank(M_5) = 14 on 10 generic "
          f"draws each; polynomial form (a_0, 0, ..., 0) on {checked} extensions")


def test_criterion_6_slb3_logic():
    rep = catalog.perm3(8)
    assert extend.slb3_test(rep, "direct")
    assert extend.slb3_test(rep, "commutator")
    rng = sampling.rng_for(106)
    from loopbraid.errors import EigenlineChosen

    zero_trace = nonzero_trace = 0
    for i in range(50):
        built = None
        while built is None:
            l1 = sampling.rand_scalar(rng)
            l2 = -l1 if i % 2 == 0 else sampling.rand_scalar(rng)
            if (l1 * l1 - l1 * l2 + l2 * l2).is_zero or l2.is_zero:
                continue
            base = catalog.tw2(l1, l2, family=2)
            line = (
                CycNum.one(base.conductor),
                sampling.rand_scalar(rng).promote(base.conductor),
            )
            try:
                built = extend.standard_extension_2d(base.A, base.B, line)
            except EigenlineChosen:
                continue
        assert verify(built, GroupKind.LB3).all_hold
        factors = extend.slb3_test(built, "direct")
        assert factors == built.B.trace().is_zero
        if built.B.trace().is_zero:
            zero_trace += 1
        else:
            nonzero_trace += 1
    assert zero_trace >= 10 and nonzero_trace >= 10
    nonstd = 0
    for _ in range(10):
        l1, l2 = sampling.rand_scalar(rng), sampling.rand_scalar(rng)
        z = sampling.rand_scalar(rng)
        if l2.is_zero or z.is_zero or z**3 == l1 / l2:
            continue
        rep = catalog.nonstandard_3d(l1, l2, z)
        assert verify(rep, GroupKind.SLB3).all_hold
        assert not is_proportional(rep.S, rep.A @ rep.B)
        nonstd += 1
    assert nonstd >= 5
    print(f"\n[PASS] criterion 6: perm3 passes both routes; 50 two-dim draws "
          f"({zero_trace} traceless / {nonzero_trace} not) satisfy "
          f"slb3 <=> Tr(B)=0; {nonstd} nonstandard draws verified SLB3 with S != kAB")


def test_criterion_7_structural_properties(extension_corpus):
    # eigenprojector laws on every corpus S
    proj_checked = 0
    for family in ("tw2", "tw3", "tw4", "tw5", "binomial"):
        for rep, pairs in extension_corpus[family]:
            built, cert = pairs[0]
            s = cert.S
            p1, pw, pw2 = eigenprojectors_order3(s)
            ident = CMatrix.identity(s.dim, s.conductor)
            assert p1 + pw + pw2 == ident
            for p in (p1, pw, pw2):
                assert p @ p == p
            assert (p1 @ pw).is_zero and (p1 @ pw2).is_zero and (pw @ pw2).is_zero
            proj_checked += 1
    # Cayley-Hamilton, 100 random matrices per dimension <= 6
    rng = random.Random(107)
    ch_checked = 0
    for d in range(1, 7):
        conductors = [1, 3, 4, 12] if d <= 3 else [1, 3, 4]
        for _ in range(100):
            n = rng.choice(conductors)
            phi = len(CycNum.zero(n).coeffs)
            mat = CMatrix(
                [
                    [
                        CycNum.from_coeffs(
                            n, [Fraction(rng.randint(-2, 2)) for _ in range(phi)]
                        )
                        for _ in range(d)
                    ]
                    for _ in range(d)
                ],
                n,
            )
            assert eval_at(mat.char_poly(), mat).is_zero
            ch_checked += 1
    # L2 four-way equivalence on all built LB3 representations
    l2_checked = 0
    for family in ("tw2", "tw3", "tw4", "tw5", "binomial"):
        for rep, pairs in extension_corpus[family]:
            for built, _ in pairs:
                flags = l2_equivalence(built)
                assert len(set(flags.values())) == 1 and flags["a"]
                l2_checked += 1
    # skew-triangularity on all tw4/tw5 extensions
    tri_checked = 0
    for family in ("tw4", "tw5"):
        for rep, pairs in extension_corpus[family]:
            for built, _ in pairs:
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
                tri_checked += 1
    print(f"\n[PASS] criterion 7: projector laws on {proj_checked} S matrices, "
          f"Cayley-Hamilton on {ch_checked} matrices, L2 equivalence on "
          f"{l2_checked} reps, skew-triangularity on {tri_checked} tw4/tw5 "
          f"extensions, all exact")


def test_criterion_8_vb3_lift(extension_corpus):
    lifted = 0
    for family in ("tw2", "tw3", "tw4", "tw5", "binomial"):
        for rep, pairs in extension_corpus[family]:
            for built, cert in pairs:
                out, lift_cert = extend.vb3_lift(built, cert.k)
                assert verify(out, GroupKind.VB3).all_hold
                k = cert.k.promote(out.conductor)
                assert out.S.trace() == k * (out.A @ out.B).trace()
                assert lift_cert.S == out.S
                assert out.S.trace().as_integer() == lift_cert.trace_value == cert.trace_value
                lifted += 1
    print(f"\n[PASS] criterion 8: VB3 lift verified with Tr(S) = Tr(kAB) on "
          f"{lifted} standard extensions")
