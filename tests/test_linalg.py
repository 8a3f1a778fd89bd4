"""Exact linear algebra: decompositions, projectors, algebra closure."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from loopbraid import catalog
from loopbraid.cyclotomic import CycNum, make_root_of_unity, omega
from loopbraid.errors import (
    ConductorMismatch,
    DimMismatch,
    NotOrderThree,
    SingularMatrix,
)
from loopbraid.linalg import (
    CMatrix,
    algebra_dimension,
    is_proportional,
    matrix_rank,
    solve_linear,
)

from extension_support import standard_extensions
from order3_support import eigenprojectors_order3
from poly_support import divides, divmod_monic, eval_at


def rand_matrix(rng, d, n=1, height=3):
    return CMatrix(
        [
            [
                Fraction(rng.randint(-height, height), rng.randint(1, 2))
                for _ in range(d)
            ]
            for _ in range(d)
        ],
        n,
    )


def test_identity_laws():
    rng = random.Random(0)
    x = rand_matrix(rng, 3)
    ident = CMatrix.identity(3, 1)
    assert x @ ident == x
    assert ident @ x == x
    assert CMatrix.zero(3, 1) + x == x


def test_tw3_cube_identity():
    rep = catalog.tw3(1, 2, 3)
    ab = rep.A @ rep.B
    assert ab.matpow(3) == CMatrix.identity(3, rep.conductor).scalar_mul(36)


def test_tw4_cube_identity():
    rep = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)  # gamma^2 = 2
    ab = rep.A @ rep.B
    assert ab.matpow(3).is_scalar() == -8  # -gamma^6
    assert ab.trace() == -2  # -gamma^2


def test_dim_and_conductor_mismatch():
    with pytest.raises(DimMismatch):
        CMatrix.identity(2, 1) @ CMatrix.identity(3, 1)
    with pytest.raises(ConductorMismatch):
        CMatrix.identity(2, 3) @ CMatrix.identity(2, 4)


def test_det_and_trace():
    assert CMatrix.identity(5, 1).det().is_one
    rng = random.Random(1)
    for lam1, lam2 in [(1, -1), (2, 3), (Fraction(1, 2), -3)]:
        for family in (2,):
            rep = catalog.tw2(lam1, lam2, family=family)
            ab = rep.A @ rep.B
            assert ab.trace() ** 2 == ab.det()
    w = omega(3)
    rep = catalog.tw2(-w, 1, family=1)
    ab = rep.A @ rep.B
    assert ab.trace() ** 2 == ab.det()


def test_det_multiplicative_trace_cyclic():
    rng = random.Random(2)
    for _ in range(10):
        x, y = rand_matrix(rng, 3), rand_matrix(rng, 3)
        assert (x @ y).det() == x.det() * y.det()
        assert (x @ y).trace() == (y @ x).trace()


def test_matpow_squares_only_up_to_the_top_bit(monkeypatch):
    # `matpow` and `CycNum.__pow__` share one loop, and each looks its
    # product up at call time, so a patched product sees every call
    a = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2).A
    x = make_root_of_unity(12, 5) + Fraction(2, 3)
    cases = [
        (CMatrix, "__matmul__", a, CMatrix.matpow, CMatrix.identity(4, a.conductor)),
        (CycNum, "__mul__", x, CycNum.__pow__, CycNum.one(12)),
    ]
    calls = []
    for cls, name, base, power, one in cases:
        mul = getattr(cls, name)

        def counted(u, v, mul=mul):
            calls.append(1)
            return mul(u, v)

        monkeypatch.setattr(cls, name, counted)
        counts = []
        for e in range(9):
            calls.clear()
            got = power(base, e)
            counts.append(len(calls))
            expected = one
            for _ in range(e):
                expected = mul(expected, base)
            assert got == expected
        assert counts == [0, 0, 1, 2, 2, 3, 3, 4, 3], name


def test_equality_and_hash_across_conductors():
    assert CMatrix.identity(2, 3) == CMatrix.identity(2, 6)
    assert hash(CMatrix.identity(2, 3)) == hash(CMatrix.identity(2, 6))
    w = omega(3)
    m = CMatrix.diagonal([w, w * w], 3)
    assert m == m.promote(12) and hash(m) == hash(m.promote(12))
    assert m != CMatrix.diagonal([w * w, w], 3).promote(12)


def test_negative_power_of_singular_raises():
    z = CMatrix.zero(2, 1)
    with pytest.raises(SingularMatrix):
        z.matpow(-1)


def test_char_poly_examples():
    w = omega(3)
    d = CMatrix.diagonal([CycNum.one(3), w, w * w], 3)
    assert d.char_poly() == (-1, 0, 0, 1)
    j = CMatrix([[7, 1, 0, 0], [0, 7, 1, 0], [0, 0, 7, 1], [0, 0, 0, 7]], 1)
    # (x - 7)^4
    assert j.char_poly() == (2401, -1372, 294, -28, 1)


def test_char_poly_trace_formula_3x3():
    # -x^3 + Tr(C) x^2 + [Tr(C)^2 - Tr(C^2)] x / ... sign-normalized:
    # char(x) = x^3 - Tr(C) x^2 - [Tr(C)^2 - Tr(C^2)]/2 ... checked via the
    # monic coefficients c2 = -Tr, c1 = (Tr^2 - Tr(C^2))/2, c0 = -Det.
    rng = random.Random(3)
    for _ in range(10):
        c = rand_matrix(rng, 3)
        cp = c.char_poly()
        tr = c.trace()
        tr2 = (c @ c).trace()
        assert cp[2] == -tr
        assert cp[1] == (tr * tr - tr2) * Fraction(1, 2)
        assert cp[0] == -c.det()


def test_min_poly_examples():
    assert CMatrix.identity(4, 1).min_poly() == (-1, 1)
    rep = catalog.tw3(1, 2, 3)
    assert len(rep.B.min_poly()) - 1 == 3
    assert rep.B.min_poly() == rep.B.char_poly()
    m = CMatrix.diagonal([1, 1, 2], 1)
    assert m.min_poly() == (2, -3, 1)


def test_is_diagonalizable_examples():
    # omega's rotation: x^2 + x + 1 is squarefree, with roots outside Q
    assert CMatrix([[0, -1], [1, -1]], 1).is_diagonalizable()
    z12 = make_root_of_unity(12)
    assert not CMatrix([[z12, 1], [0, z12]], 12).is_diagonalizable()
    assert CMatrix.identity(4, 1).is_diagonalizable()


def test_cayley_hamilton_and_min_divides_char():
    rng = random.Random(4)
    for d in (1, 2, 3, 4):
        for _ in range(5):
            x = rand_matrix(rng, d, n=rng.choice([1, 3, 4]))
            cp = x.char_poly()
            assert eval_at(cp, x).is_zero
            assert divides(x.min_poly(), cp)


def test_kernel_examples():
    assert CMatrix.identity(3, 1).kernel() == []
    z = CMatrix.zero(3, 1)
    basis = z.kernel()
    assert len(basis) == 3
    k = CMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 1)
    basis = k.kernel()
    assert len(basis) == 1
    for v in basis:
        assert all(e.is_zero for e in k.apply(v))


def test_kernel_matches_char_poly_multiplicity_tw4():
    # dim of ker(S - wI) equals the multiplicity of w as a root of char(S)
    rep = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)
    (rep4, cert), = standard_extensions(rep.A, rep.B)
    s = cert.S
    w = omega(s.conductor)
    ident = CMatrix.identity(4, s.conductor)
    kdim = len((s - ident.scalar_mul(w)).kernel())
    cp = s.char_poly()
    lin = (-w, 1)
    mult = 0
    while divides(lin, cp):
        cp = divmod_monic(cp, lin)[0]
        mult += 1
    assert kdim == mult > 0


def test_eigenprojectors_examples():
    p1, pw, pw2 = eigenprojectors_order3(CMatrix.identity(3, 3))
    assert p1.is_identity and pw.is_zero and pw2.is_zero
    w = omega(3)
    s = CMatrix.diagonal([CycNum.one(3), w, w * w], 3)
    p1, pw, pw2 = eigenprojectors_order3(s)
    unit = lambda k: CMatrix.build(3, 3, lambda i, j: 1 if i == j == k else 0)
    assert (p1, pw, pw2) == (unit(0), unit(1), unit(2))


def test_eigenprojector_laws_on_tw4_standard_s():
    rep = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)
    (rep4, cert), = standard_extensions(rep.A, rep.B)
    s = cert.S
    p1, pw, pw2 = eigenprojectors_order3(s)
    ident = CMatrix.identity(4, s.conductor)
    w = omega(s.conductor)
    assert p1 + pw + pw2 == ident
    for p in (p1, pw, pw2):
        assert p @ p == p
    assert (p1 @ pw).is_zero and (pw @ pw2).is_zero and (p1 @ pw2).is_zero
    assert s @ p1 == p1 and s @ pw == pw.scalar_mul(w)
    r1, rw, rw2 = p1.rank(), pw.rank(), pw2.rank()
    assert r1 + rw + rw2 == 4
    assert s.trace() == r1 + w * rw + w * w * rw2
    assert s.trace().as_integer() == 1  # four-dim extensions have Tr(S) = 1


def test_not_order_three_raises():
    with pytest.raises(NotOrderThree):
        eigenprojectors_order3(CMatrix.diagonal([2, 1], 3))


def test_algebra_dimension_examples():
    assert algebra_dimension([CMatrix.identity(3, 1)]) == 1
    rep = catalog.tw3(1, 2, 3)
    assert algebra_dimension([rep.A, rep.B]) == 9


def test_algebra_dimension_monotone_and_capped():
    rng = random.Random(5)
    x = rand_matrix(rng, 3)
    y = rand_matrix(rng, 3)
    d1 = algebra_dimension([x])
    d2 = algebra_dimension([x, y])
    assert d1 <= d2 <= 9


def test_solve_linear_identity_and_inconsistent():
    ident = CMatrix.identity(3, 1)
    rhs = [CycNum.from_rational(v, 1) for v in (1, 2, 3)]
    sol, kern = solve_linear(ident.rows, rhs)
    assert list(sol) == rhs and kern == []
    one = CycNum.one(1)
    assert solve_linear([[one], [one]], [one, CycNum.from_rational(2, 1)]) is None


def test_solve_linear_refuses_a_rhs_of_the_wrong_length():
    rows = CMatrix.identity(2, 1).rows
    one = CycNum.one(1)
    for rhs in ([one], [one, one, one]):
        with pytest.raises(DimMismatch):
            solve_linear(rows, rhs)
    with pytest.raises(DimMismatch):
        solve_linear([], [one])


def test_solve_linear_refuses_rows_of_different_lengths():
    one = CycNum.one(1)
    with pytest.raises(DimMismatch):
        solve_linear([[one, one], [one]], [one, one])


def test_a_product_is_kept_per_right_operand_object():
    a, b = CMatrix.diagonal([1, 2], 1), CMatrix.diagonal([3, 5], 1)
    ab = a @ b
    assert a @ b is ab and ab == CMatrix.diagonal([3, 10], 1)
    assert a @ CMatrix.diagonal([3, 5], 1) is not ab  # an equal matrix, not b
    # the memo holds b weakly: once b is gone, a new matrix that takes its
    # id gets its own product, not the one kept for b
    key = id(b)
    del b
    for k in range(1000):
        c = CMatrix.diagonal([7, k], 1)
        if id(c) == key:
            break
    assert a @ c == CMatrix.diagonal([7, 2 * k], 1)


def test_a_dead_operand_takes_its_product_out_of_the_memo():
    # with gc off, only reference counting frees: an entry left behind, or
    # a callback that held `a` in a cycle, would show
    gc.disable()
    try:
        a = CMatrix.diagonal([1, 2], 1)
        operands = [CMatrix.diagonal([3, k], 1) for k in range(200)]
        for o in operands:
            assert a @ o is a @ o
        assert len(a._products) == 200
        del o
        operands.clear()
        assert a._products == {}
        gone = weakref.ref(a)
        del a
        assert gone() is None
    finally:
        gc.enable()


def test_solve_linear_lifts_plain_entries():
    # x + 2y = 1 twice over: the particular solution (1, 0) and the kernel
    # (-2, 1), over Q, with no CycNum anywhere
    one, zero = CycNum.one(1), CycNum.zero(1)
    sol, kern = solve_linear([[1, 2], [2, 4]], [1, 2])
    assert sol == (one, zero) and kern == [(CycNum.from_rational(-2, 1), one)]
    assert solve_linear([[1, 2], [2, 4]], [1, 3]) is None
    # a Fraction beside a CycNum of conductor 12 is lifted to conductor 12
    w = make_root_of_unity(12, 1)
    sol, kern = solve_linear([[Fraction(1, 2)]], [w])
    assert sol == (w * 2,) and sol[0].conductor == 12 and kern == []
    # entries of two conductors are refused, as CMatrix refuses them
    with pytest.raises(ConductorMismatch):
        solve_linear([[w, CycNum.one(3)]], [1])


def test_solve_linear_with_no_unknowns():
    zero, one = CycNum.zero(1), CycNum.one(1)
    assert solve_linear([[], []], [zero, zero]) == ((), [])
    assert solve_linear([], []) == ((), [])
    assert solve_linear([[]], [one]) is None


def test_solve_powers_of_b_expansion():
    # S(AB)^-1 for a standard-extension S is k*I: expanding in powers of B
    # must give coefficient vector (k, 0, 0).
    from loopbraid import extend

    rep = catalog.tw3(1, 2, Fraction(27, 2))  # product = 27, k = 1/9 rational
    search = extend.standard_k_candidates(rep.A, rep.B)
    # the search lists k with omega adjoined; read it back at N = 1
    k = next(k for k, m in search.candidates if k.is_rational)
    k = CycNum.from_rational(k.as_rational(), 1)
    s = (rep.A @ rep.B).scalar_mul(k)
    target = s @ (rep.A @ rep.B).inverse()
    powers = [CMatrix.identity(3, rep.conductor), rep.B, rep.B @ rep.B]
    flat = [p.flatten() for p in powers]
    rows = [[flat[n][i] for n in range(3)] for i in range(9)]
    sol, kern = solve_linear(rows, list(target.flatten()))
    assert kern == []
    assert sol[0] == k and sol[1].is_zero and sol[2].is_zero


def test_proportionality_rank_test():
    x = CMatrix([[1, 2], [3, 4]], 1)
    assert is_proportional(x, x.scalar_mul(CycNum.from_rational(Fraction(-7, 3), 1)))
    assert not is_proportional(x, CMatrix([[1, 2], [3, 5]], 1))
    assert matrix_rank([x.flatten(), CMatrix([[1, 2], [3, 5]], 1).flatten()]) == 2


def test_matrix_rank_refuses_ragged_rows():
    one, two = CycNum.one(1), CycNum.from_rational(2, 1)
    for rows in ([[one], [two, one]], [[one, two], [two]], [[], [one]]):
        with pytest.raises(DimMismatch):
            matrix_rank(rows)
    assert matrix_rank([[]]) == matrix_rank([[], []]) == matrix_rank([]) == 0


def test_proportionality_of_different_dims_raises():
    with pytest.raises(DimMismatch):
        is_proportional(CMatrix.identity(2, 1), CMatrix.identity(3, 1))


def test_kron_shape_and_values():
    x = CMatrix([[1, 2], [3, 4]], 1)
    y = CMatrix([[0, 1], [1, 0]], 1)
    k = x.kron(y)
    assert k.dim == 4
    assert k[(0, 1)] == 1 and k[(0, 3)] == 2 and k[(2, 1)] == 3


_I2 = CMatrix.identity(2, 1)


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: algebra_dimension([]), ValueError, "at least one generator"),
        (
            lambda: algebra_dimension([_I2, CMatrix.identity(3, 1)]),
            DimMismatch,
            "share a dimension",
        ),
        (
            lambda: algebra_dimension([_I2, CMatrix.identity(2, 3)]),
            ConductorMismatch,
            "share a conductor",
        ),
        (lambda: _I2.apply([CycNum.one(1)]), DimMismatch, "vector length"),
        (lambda: _I2.kron(CMatrix.identity(2, 3)), ConductorMismatch, "kron"),
    ],
    ids=["algdim-empty", "algdim-dims", "algdim-conductors", "apply", "kron"],
)
def test_linalg_refusals(call, error, text):
    with pytest.raises(error, match=text):
        call()
