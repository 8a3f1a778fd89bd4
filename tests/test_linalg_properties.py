"""Property tests of the exact elimination kernel behind det, inverse, rank,
kernel, solve_linear and min_poly, at conductors 1 and 12, of the
characteristic polynomial, whose Faddeev-LeVerrier steps and evaluation run
through the packed product, of `is_diagonalizable` against sympy on
conjugated Jordan forms, of the exact replay of a rank that falls short
mod p against one plain exact elimination, and of the exact witnesses that
answer is_irreducible and is_cyclic before a replay: each agrees with the
span closure, and finds nothing on an irreducible or cyclic draw."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from loopbraid import catalog, linalg
from loopbraid.cyclotomic import CycNum, make_root_of_unity
from loopbraid.errors import ConstraintViolated, SingularMatrix
from loopbraid.linalg import CMatrix, Echelon, algebra_dimension, matrix_rank, solve_linear
from loopbraid.repcore import GroupKind, LBRep, is_irreducible, tensor_product

from poly_support import divides, eval_at
from sum_support import direct_sum

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def scalars(draw, n):
    """Zero a quarter of the time, else a small rational times a root of unity."""
    if draw(st.integers(0, 3)) == 0:
        return CycNum.zero(n)
    q = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    return make_root_of_unity(n, draw(st.integers(0, n - 1))) * q


@st.composite
def matrices(draw, n=None, dim=None):
    """A d x d matrix; a third are singular by a repeated combination of rows."""
    n = draw(st.sampled_from([1, 12])) if n is None else n
    d = draw(st.integers(1, 3)) if dim is None else dim
    rows = [[draw(scalars(n)) for _ in range(d)] for _ in range(d)]
    if d > 1 and draw(st.integers(0, 2)) == 0:
        c = draw(scalars(n))
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1 % (d - 1)])]
    return CMatrix(rows, n)


def _zero_vector(m: CMatrix):
    return (CycNum.zero(m.conductor),) * m.dim


@PROPERTY
@given(matrices())
def test_rank_nullity_and_kernel_vectors(m):
    kernel = m.kernel()
    assert m.rank() + len(kernel) == m.dim
    assert matrix_rank(m.rows) == m.rank()
    for v in kernel:
        assert m.apply(v) == _zero_vector(m)


@PROPERTY
@given(matrices())
def test_inverse_exactly_when_det_nonzero(m):
    if m.det().is_zero:
        with pytest.raises(SingularMatrix):
            m.inverse()
        assert m.rank() < m.dim
    else:
        ident = CMatrix.identity(m.dim, m.conductor)
        assert m @ m.inverse() == ident
        assert m.inverse() @ m == ident


@PROPERTY
@given(st.sampled_from([1, 12]).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda d: st.tuples(matrices(n, d), matrices(n, d))
    )
))
def test_det_multiplicative(xy):
    x, y = xy
    assert (x @ y).det() == x.det() * y.det()


@PROPERTY
@given(st.sampled_from([1, 12]).flatmap(
    lambda n: st.tuples(
        st.integers(1, 4).flatmap(
            lambda r: st.integers(1, 3).flatmap(
                lambda c: st.lists(
                    st.lists(scalars(n), min_size=c, max_size=c), min_size=r, max_size=r
                )
            )
        ),
        st.lists(scalars(n), min_size=4, max_size=4),
    )
))
def test_solve_linear_solutions_satisfy_the_system(system):
    rows, rhs = system
    rhs = rhs[: len(rows)]
    n = rows[0][0].conductor
    zero = CycNum.zero(n)

    def apply(x):
        return [sum((a * b for a, b in zip(row, x)), zero) for row in rows]

    out = solve_linear(rows, rhs)
    if out is None:  # inconsistent: rhs raises the rank
        assert matrix_rank([[*r, b] for r, b in zip(rows, rhs)]) > matrix_rank(rows)
        return
    sol, kernel = out
    assert apply(sol) == rhs
    assert matrix_rank(rows) + len(kernel) == len(rows[0])
    for v in kernel:
        assert apply(v) == [zero] * len(rows)


@PROPERTY
@given(matrices())
def test_min_poly_annihilates_and_divides_char_poly(m):
    mp = m.min_poly()
    assert mp[-1] == 1
    assert eval_at(mp, m).is_zero
    assert divides(mp, m.char_poly())
    assert len(mp) - 1 == algebra_dimension([m])


@PROPERTY
@given(matrices(n=1))
def test_rank_and_det_match_sympy_at_conductor_1(m):
    ref = sympy.Matrix([[sympy.Rational(str(e.as_rational())) for e in r] for r in m.rows])
    assert m.rank() == ref.rank()
    assert m.det().as_rational() == Fraction(str(ref.det()))


@PROPERTY
@given(st.sampled_from([1, 12, 60]).flatmap(
    lambda n: st.integers(1, 4).flatmap(lambda d: matrices(n, d))
))
def test_cayley_hamilton(m):
    assert eval_at(m.char_poly(), m).is_zero


ZETA12 = sympy.exp(2 * sympy.pi * sympy.I / 12)
QQ_ZETA12 = sympy.QQ.algebraic_field(ZETA12)  # generator zeta_12, modulus Phi_12


def _to_sympy(x: CycNum):
    # the same power basis mod Phi_12; sympy lists highest degree first
    return QQ_ZETA12([sympy.QQ(c.numerator, c.denominator) for c in reversed(x.coeffs)])


@PROPERTY
@given(matrices(n=12))
def test_char_poly_matches_sympy_at_conductor_12(m):
    ref = DomainMatrix(
        [[_to_sympy(e) for e in row] for row in m.rows], (m.dim, m.dim), QQ_ZETA12
    ).charpoly()
    assert [_to_sympy(c) for c in reversed(m.char_poly())] == ref


# omega's rotation R, with eigenvalues w and w^2 outside Q, and R twice with
# I above the diagonal, which is not diagonalizable
ROTATION_BLOCKS = (
    ((0, -1), (1, -1)),
    ((0, -1, 1, 0), (1, -1, 0, 1), (0, 0, 0, -1), (0, 0, 1, -1)),
)


@st.composite
def conjugated_jordan_forms(draw):
    """P J P^-1 at N = 1 with d <= 4, J block diagonal.  A block is a Jordan
    block J_k(l) with l drawn from four values, so eigenvalues repeat, or
    one of `ROTATION_BLOCKS`.  P = L U with unit triangular L and U is
    invertible over Z."""
    d = draw(st.integers(1, 4))
    j = [[0] * d for _ in range(d)]
    at = 0
    while at < d:
        blocks = [
            *(("jordan", k) for k in range(1, d - at + 1)),
            *(b for b in ROTATION_BLOCKS if len(b) <= d - at),
        ]
        block = draw(st.sampled_from(blocks))
        if block[0] == "jordan":
            lam, k = draw(st.sampled_from([-1, 0, 1, 2])), block[1]
            block = [[lam if c == r else int(c == r + 1) for c in range(k)] for r in range(k)]
        for r, row in enumerate(block):
            j[at + r][at : at + len(row)] = row
        at += len(block)
    low = [[1 if i == k else draw(st.integers(-2, 2)) if i > k else 0 for k in range(d)]
           for i in range(d)]
    up = [[1 if i == k else draw(st.integers(-2, 2)) if i < k else 0 for k in range(d)]
          for i in range(d)]
    p = CMatrix(low, 1) @ CMatrix(up, 1)
    return p @ CMatrix(j, 1) @ p.inverse()


@PROPERTY
@given(conjugated_jordan_forms())
def test_is_diagonalizable_matches_sympy_at_conductor_1(m):
    ref = sympy.Matrix([[sympy.Rational(str(e.as_rational())) for e in r] for r in m.rows])
    assert m.is_diagonalizable() == ref.is_diagonalizable()


@st.composite
def block_triangular_pairs(draw):
    """Two d x d matrices [[X, Y], [0, Z]] with blocks of the same sizes,
    d <= 4: the pair keeps a subspace invariant, so it generates fewer than
    d^2 dimensions, and its 15 words of length at most 3 fall short of rank
    min(15, d^2)."""
    n = draw(st.sampled_from([1, 3, 4, 12]))
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, d - 1))
    zero = CycNum.zero(n)

    def block_triangular():
        return CMatrix(
            [[zero if i >= k > j else draw(scalars(n)) for j in range(d)] for i in range(d)], n
        )

    return block_triangular(), block_triangular()


def _plain_algebra_dimension(gens) -> int:
    """The closure of I under the generators over CMatrix products, in one
    Echelon: each word that enters the span is multiplied by every generator."""
    d, n = gens[0].dim, gens[0].conductor
    ech = Echelon(d * d, n)
    frontier = [CMatrix.identity(d, n)]
    while frontier:
        frontier = [g @ w for w in frontier if ech.insert(w.flatten())[1] is not None for g in gens]
    return len(ech.rows)


def test_replayed_ranks_match_one_exact_elimination():
    replays, replay = [], linalg._replay

    def recorded(*args):
        replays.append(replay(*args))
        return replays[-1]

    @PROPERTY
    @given(block_triangular_pairs())
    def check(pair):
        d, n = pair[0].dim, pair[0].conductor
        words, frontier = [], [CMatrix.identity(d, n)]
        for _ in range(4):
            words += [w.flatten() for w in frontier]
            frontier = [g @ w for w in frontier for g in pair]
        assert matrix_rank(words) == len(Echelon(d * d, n, words).rows)
        assert algebra_dimension(list(pair)) == _plain_algebra_dimension(pair)
        draws.append(pair)

    draws = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "_replay", recorded)
        check()
    # most of the two questions per draw fall short mod p and are answered
    # by a confirmed replay
    assert sum(replays) > len(draws)


# -- the exact witnesses that a closure falls short ------------------------------


@st.composite
def triangular_matrices(draw):
    """An upper or lower triangular d x d matrix, d <= 4, its diagonal drawn
    from three values, so that eigenvalues repeat, and each entry off it
    zero a quarter of the time: cyclic or not, and with one eigenvector or
    more at a repeated eigenvalue."""
    n = draw(st.sampled_from([1, 12]))
    d = draw(st.integers(1, 4))
    rows = [
        [draw(st.sampled_from([-1, 1, 2])) if i == j else draw(scalars(n)) if j > i else 0
         for j in range(d)]
        for i in range(d)
    ]
    m = CMatrix(rows, n)
    return m.transpose() if draw(st.booleans()) else m


@PROPERTY
@given(st.one_of(triangular_matrices(), conjugated_jordan_forms()))
def test_is_cyclic_is_the_closure_of_powers_reaching_d(m):
    """is_cyclic, which may answer False by a repeated eigenspace of a
    triangular m, agrees with the span of m's powers, and that witness
    finds nothing on a cyclic m."""
    d = m.dim
    assert m.is_cyclic() == (algebra_dimension([m]) == d)
    if m.is_cyclic():
        assert not linalg._repeated_eigenspace(m)


def _units(n: int):
    """A small nonzero rational times a root of unity of order n."""
    return st.builds(
        lambda q, den, k: make_root_of_unity(n, k) * Fraction(q, den),
        st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 2), st.integers(0, n - 1),
    )


@st.composite
def triangular_reps(draw, max_dim: int = 4):
    """A catalog pair in ordered triangular form at N = 3, A upper and B
    lower triangular: tw2 of either family (1 is reducible), tw3, tw4 or a
    binomial pair, of dimension at most max_dim.  A draw that breaks its
    family's constraint is rejected."""
    u = _units(3)
    sizes = {"tw2": 2, "tw2-family1": 2, "tw3": 3, "tw4": 4, "binomial": 2}
    family = draw(st.sampled_from([f for f, d in sizes.items() if d <= max_dim]))
    try:
        if family == "tw2":
            return catalog.tw2(draw(u), draw(u), family=2)
        if family == "tw2-family1":
            l2 = draw(u)
            return catalog.tw2(-l2 * make_root_of_unity(3, draw(st.integers(1, 2))), l2, family=1)
        if family == "tw3":
            return catalog.tw3(draw(u), draw(u), draw(u))
        if family == "tw4":
            l1, l2, l3, g2 = (draw(u) for _ in range(4))
            return catalog.tw4([l1, l2, l3, g2 * g2 / (l1 * l2 * l3)], g2)
        # lambda_i lambda_(d-i) = c, and lambda_(d/2)^2 = c for even d
        d = draw(st.integers(1, min(max_dim, 4) - 1))
        lams = [draw(u) for _ in range(d // 2 + 1)]
        c = lams[-1] * lams[-1] if d % 2 == 0 else draw(u)
        lams += [c / x for x in reversed(lams[: (d + 1) // 2])]
        return LBRep(GroupKind.B3, *catalog.binomial_pair(lams, c))
    except ConstraintViolated:
        reject()


@st.composite
def representations(draw):
    """A triangular catalog draw, perm3, a direct sum of two draws or the
    tensor square of a 2-dimensional one (d <= 5), and half of the time a
    dense conjugate of it, P X P^-1 with P = L U for unit triangular L, U
    over Z, on which no witness is searched."""
    if draw(st.integers(0, 4)) == 0:
        t = draw(_units(3))
        assume(not t.is_one)
        rep = catalog.perm3(t)
    else:
        rep = draw(triangular_reps())
    shape = draw(st.sampled_from(["plain", "sum", "square"]))
    if shape == "sum" and rep.dim <= 3:
        rep = direct_sum(rep, draw(triangular_reps(max_dim=5 - rep.dim)))
    elif shape == "square" and rep.dim == 2:
        rep = tensor_product(rep, rep)
    if draw(st.booleans()):
        d, n = rep.dim, rep.conductor

        def unit_triangular(lower: bool) -> CMatrix:
            def entry(i, k):
                return 1 if i == k else draw(st.integers(-2, 2)) if (i > k) == lower else 0

            return CMatrix.build(d, n, entry)

        p = unit_triangular(True) @ unit_triangular(False)
        pi = p.inverse()
        rep = LBRep(rep.target, **{g: p @ x @ pi for g, x in rep.images().items()})
    return rep


@PROPERTY
@given(representations())
def test_witnesses_agree_with_the_closure(rep):
    """is_irreducible, which may answer False by an eigenvector that spins
    to a proper invariant subspace, agrees with Burnside's count, and so
    does is_cyclic on each generator."""
    gens, d = rep.present(), rep.dim
    assert is_irreducible(rep) == (algebra_dimension(gens) == d * d)
    for g in gens:
        assert g.is_cyclic() == (algebra_dimension([g]) == d)


@PROPERTY
@given(triangular_reps())
def test_witnesses_find_nothing_on_irreducible_and_cyclic_draws(rep):
    gens, d = rep.present(), rep.dim
    if algebra_dimension(gens) == d * d:
        assert not linalg._invariant_subspace(gens)
    for g in gens:
        if algebra_dimension([g]) == d:
            assert not linalg._repeated_eigenspace(g)
