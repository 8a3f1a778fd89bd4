"""Property tests of the Kronecker-packed product behind every exact sum
of products: CMatrix @, `dot`, `CMatrix.apply`, `extend._combination` and
the exact rows of `uniqueness_linearized`; and of `packed_equal`, which
compares two such products on their residues, against `==` of the formed
products.

The reference is the schoolbook sum of CycNum products, built from `*` and
`+` alone, so it shares no code with the packing and unpacking.  The same
reference defines the uniqueness system: its image mod p is the system the
rank is first asked of, in one `modular.EchelonModP`.  When that rank falls
short of N_d, one `linalg.Echelon` receives exactly the exact rows found
independent mod p; a second receives every exact row when the others do
not lie in their span, or when A and B have no image mod p.  No second
elimination mod p runs."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbraid import catalog, cyclotomic, extend, linalg, modular, sampling
from loopbraid.cyclotomic import (
    _REMAINDER_BITS,
    CycNum,
    _Side,
    _field,
    _packed_modulus,
    _slot_bits,
    dot,
    euler_phi,
    make_root_of_unity,
    packed_equal,
)
from loopbraid.errors import ConductorMismatch, MinPolyMismatch
from loopbraid.linalg import CMatrix, matrix_rank
from loopbraid.repcore import tensor_product

PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)
CALLERS = settings(derandomize=True, max_examples=40, deadline=None)
CONDUCTORS = (1, 3, 12, 60)
# Phi_N(2^K) lies just below 2^(K phi) where mu(N) = 1 (N = 1, 6, 10) and
# above it where mu(N) = -1 (N = 2, 3, 7); Phi_105 has a -2, and folding
# grows a coefficient up to 28-fold there
KERNEL_CONDUCTORS = CONDUCTORS + (2, 6, 10, 7, 9, 15, 84, 105)


def reference(a: CMatrix, b: CMatrix) -> CMatrix:
    d, n = a.dim, a.conductor
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = CycNum.zero(n)
            for k in range(d):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return CMatrix(rows, n)


def assert_same(got: CMatrix, want: CMatrix):
    assert got == want
    # one representation per field element: the stored vectors agree too
    for r, s in zip(got.rows, want.rows):
        for x, y in zip(r, s):
            assert (x.conductor, x._num, x._den) == (y.conductor, y._num, y._den)


@st.composite
def scalars(draw, n, zero_share):
    if draw(st.floats(0, 1)) < zero_share:
        return CycNum.zero(n)
    bits = draw(st.sampled_from([1, 8, 40, 200]))
    top = 2**bits
    coeffs = [draw(st.integers(-top, top)) for _ in range(euler_phi(n))]
    den = draw(st.sampled_from([1, 1, 2, 3, 7, 12, 2**61 - 1, 2**64]))
    return CycNum(n, coeffs, den)


@st.composite
def pairs(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    d = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["dense", "sparse", "upper", "lower"]))
    zero_share = {"dense": 0.0, "sparse": 0.75}.get(shape, 0.1)

    def matrix():
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                if (shape == "upper" and j < i) or (shape == "lower" and j > i):
                    row.append(CycNum.zero(n))
                else:
                    row.append(draw(scalars(n, zero_share)))
            rows.append(row)
        return CMatrix(rows, n)

    return matrix(), matrix()


@PROPERTY
@given(pairs())
def test_packed_product_equals_schoolbook(pair):
    a, b = pair
    assert_same(a @ b, reference(a, b))


@PROPERTY
@given(pairs())
def test_products_that_cancel_to_zero(pair):
    # column j of c is (a01, -a00, 0, ...), so row 0 of a @ c is
    # a00 a01 - a01 a00 = 0 exactly, whatever the other rows give
    a, _ = pair
    d, n = a.dim, a.conductor
    if d < 2:
        return
    zero = CycNum.zero(n)
    col = [a[0, 1], -a[0, 0]] + [zero] * (d - 2)
    c = CMatrix([[col[i]] * d for i in range(d)], n)
    got = a @ c
    assert all(x.is_zero for x in got.rows[0])
    assert_same(got, reference(a, c))


def loud_signs(n):
    """Sign vectors a, b whose product a * b in Q(zeta_n) has one large
    coefficient.  Coefficient j of the product is sum_(i,l) a_i b_l f_(i+l),
    where f_e is what zeta^e reduces to there; j is the coefficient with the
    largest sum_e |f_e| * #{(i, l): i + l = e}, and the signs are raised by
    alternating maximization from a few seeded starts.  At every conductor
    here with phi > 1 the coefficient exceeds phi, 1.5 to 9 times over."""
    fld = _field(n)
    phi = fld.phi
    fold = [dict(fld.fold[e]) for e in range(2 * phi - 1)]
    pairs = [min(e + 1, 2 * phi - 1 - e) for e in range(2 * phi - 1)]
    j = max(range(phi), key=lambda j: sum(p * abs(r.get(j, 0)) for p, r in zip(pairs, fold)))
    f = [r.get(j, 0) for r in fold]
    rng, best = random.Random(0), None
    for _ in range(8):
        b = [rng.choice((-1, 1)) for _ in range(phi)]
        for _ in range(4):
            a = [1 if sum(bl * f[i + l] for l, bl in enumerate(b)) >= 0 else -1 for i in range(phi)]
            b = [1 if sum(ai * f[i + l] for i, ai in enumerate(a)) >= 0 else -1 for l in range(phi)]
        value = sum(ai * bl * f[i + l] for i, ai in enumerate(a) for l, bl in enumerate(b))
        best = max(best or (value, a, b), (value, a, b))
    return best[1], best[2]


def tops(scale, widths):
    """Per slot width k: the largest m with scale * m^2 < 2^(k-1), the top
    of a k-bit slot, and m + 1, one past it."""
    out = []
    for k in widths:
        m = math.isqrt(((1 << (k - 1)) - 1) // scale)
        out += [m, m + 1]
    return out


@pytest.mark.parametrize("n", KERNEL_CONDUCTORS)
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_slots_at_the_bound(n, d, sign):
    # every entry of x is m * a and every entry of y is |m| * b, so every
    # output entry is d * (x * y): its convolution slots are at most
    # s = d * phi * m^2 and its reduced coefficients at most s * g_N.  m
    # runs over the top of every slot width for s and for s * g_N, on both
    # routes, and the signs make one reduced coefficient exceed s: a width
    # taken from s alone overflows there
    fld = _field(n)
    phi, g = fld.phi, fld.growth
    a, b = loud_signs(n)
    widths = range(8, 8 * (_REMAINDER_BITS // phi // 8) + 24, 8)
    needs_g = set()
    for m in sorted(set(tops(d * phi, widths) + tops(d * phi * g, widths))):
        x = CycNum(n, [sign * m * c for c in a])
        y = CycNum(n, [m * c for c in b])
        got = (CMatrix([[x] * d] * d, n) @ CMatrix([[y] * d] * d, n)).rows
        want = x * y * d
        for row in got:
            assert_same_scalars(row, [want] * d)
        s = d * phi * m * m
        remainder = phi * _slot_bits(s * g, phi) <= _REMAINDER_BITS
        if max(map(abs, want._num)) >= 1 << (_slot_bits(s, phi if remainder else 2 * phi - 1) - 1):
            needs_g.add(remainder)
    assert needs_g == ({True, False} if phi > 1 else set())


@pytest.mark.parametrize("n", KERNEL_CONDUCTORS)
def test_numerators_across_word_widths_and_the_route(n):
    # random 3 x 3 products whose largest coefficient sits at the top of
    # each slot width and one past it, from 8-bit slots to past the route
    # bound, where the kernel folds all 2 phi - 1 slots instead
    fld = _field(n)
    phi, d = fld.phi, 3
    scale = d * phi * fld.growth
    widths = [8, 16, 32, 64, 72, 8 * (_REMAINDER_BITS // phi // 8), _REMAINDER_BITS // phi + 8]
    rng = random.Random(n)
    routes = set()
    for m in tops(scale, widths):
        def matrix(top):
            rows = [[CycNum(n, [rng.randint(-m, m) for _ in range(phi)]) for _ in range(d)]
                    for _ in range(d)]
            rows[rng.randrange(d)][rng.randrange(d)] = CycNum(n, [top] + [0] * (phi - 1))
            return CMatrix(rows, n)

        x, y = matrix(m), matrix(-m)
        assert_same(x @ y, reference(x, y))
        routes.add(phi * _slot_bits(scale * m * m, phi) <= _REMAINDER_BITS)
    assert routes == {True, False}


def test_the_symmetric_residue_is_exact_at_every_remainder_width():
    # every K the remainder route can pick at every conductor up to 210:
    # whole bytes, words among them, with phi * K within the route bound
    for n in range(1, 211):
        for k in range(8, _REMAINDER_BITS // euler_phi(n) + 1, 8):
            _packed_modulus.__wrapped__(n, k)  # raises when the guard fails


def test_exact_zero_product():
    # a strictly upper triangular e_01 squares to zero
    for n in CONDUCTORS:
        rows = [[CycNum.zero(n)] * 3 for _ in range(3)]
        rows[0][1] = CycNum(n, [5] * euler_phi(n), 3)
        m = CMatrix(rows, n)
        assert (m @ m).is_zero


# -- prepared operands ------------------------------------------------------------


def fresh(m: CMatrix) -> CMatrix:
    """A copy of m built anew, so that neither of its sides is prepared
    and it keeps no product, verdict or image mod p."""
    return CMatrix([list(r) for r in m.rows], m.conductor)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_a_prepared_matrix_multiplies_as_a_fresh_one(n):
    # m enters products as columns, then as rows, then both ways again,
    # against partners sized to force in turn an 8-bit word, a 64-bit word,
    # whole bytes past 64 bits and the fold past _REMAINDER_BITS.  Every
    # entry of m is 0 or has numerators in {-1, 0, 1} over 2, so both of its
    # sides have top 1 and every partner of top p fixes the slot width.
    fld = _field(n)
    phi, g, d = fld.phi, fld.growth, 3
    rng = random.Random(n)
    entries = [CycNum(n, [rng.choice((-1, 0, 1)) for _ in range(phi)], 2) for _ in range(d * d)]
    entries[0] = CycNum(n, [1] + [0] * (phi - 1), 2)
    m = CMatrix([entries[i : i + d] for i in range(0, d * d, d)], n)
    widths, folds = [], []
    for bits in (8, 64, 72, _REMAINDER_BITS // phi + 8):
        p = ((1 << (bits - 1)) - 1) // (d * phi * g)
        rows = [[CycNum(n, [rng.randint(-p, p) for _ in range(phi)]) for _ in range(d)]
                for _ in range(d)]
        rows[rng.randrange(d)][rng.randrange(d)] = CycNum(n, [p] + [0] * (phi - 1))
        partner = CMatrix(rows, n)
        k = _slot_bits(d * phi * p * g, phi)
        folds.append(phi * k > _REMAINDER_BITS)
        widths.append(_slot_bits(d * phi * p, 2 * phi - 1) if folds[-1] else k)
        for _ in range(2):
            assert_same(partner @ m, fresh(partner) @ fresh(m))
            assert_same(partner @ m, reference(partner, m))
            assert_same(m @ partner, fresh(m) @ fresh(partner))
            assert_same(m @ partner, reference(m, partner))
    assert widths[:3] == [8, 64, 72] and folds == [False, False, False, True]
    # each side of m holds one packing per width it met
    assert set(m._as_cols.packed) == set(m._as_rows.packed) == set(widths)
    assert m._as_cols.top == m._as_rows.top == 1


def test_a_packing_is_stored_only_when_whole():
    # concurrent products of one matrix share its prepared sides: a caller
    # that asks for a width while another is packing it must find either
    # no packing or all d rows.  Re-entering pack(k) after the first vector
    # is that second caller, deterministically.
    n, d, k = 12, 4, 16
    seen = []

    class Reentrant(list):
        armed = False

        def __iter__(self):
            for i, vec in enumerate(list.__iter__(self)):
                yield vec
                if i == 0 and self.armed:
                    self.armed = False
                    seen.append(len(side.pack(k)))

    vectors = Reentrant(
        [[CycNum.from_rational(i * d + j + 1, n) for j in range(d)] for i in range(d)]
    )
    side = _Side(vectors, n)
    vectors.armed = True
    assert len(side.pack(k)) == d
    assert seen == [d]
    assert len(side.packed[k]) == d


def test_plain_vectors_of_another_conductor_are_refused():
    # dot, apply, the exact side of the rank route and _combination hand
    # plain vectors to the kernel, which prepares them against the
    # conductor of the other side, or of the pass
    m = CMatrix.identity(2, 12)
    assert m @ m == m  # both sides of m are now prepared
    x12, x3 = CycNum.one(12), CycNum.one(3)
    with pytest.raises(ConductorMismatch):
        m.apply([x12, x3])
    with pytest.raises(ConductorMismatch):
        dot([x12], [x3])
    with pytest.raises(ConductorMismatch):
        linalg._exact_ring(12).mul(m.rows, [[x12, x3], [x3, x12]])
    with pytest.raises(ConductorMismatch):
        linalg._exact_ring(12).mul([[x12, x3], [x3, x12]], m.rows)
    with pytest.raises(ConductorMismatch):
        extend._combination([x3], [m])


# -- two products compared on their residues ------------------------------------

COMPARED = (3, 12, 60)


def fold_bits(n: int) -> int:
    """A coefficient size whose products take the fold route at n: the
    slots of a product of two such scalars are wider than
    _REMAINDER_BITS / phi."""
    return _REMAINDER_BITS // (2 * euler_phi(n)) + 8


@st.composite
def compared_products(draw):
    """(x, y, u, v): x @ y against u @ v, where u @ v is x @ y itself with
    other factors, other denominators and other convolutions (x D and
    D^-1 y for a diagonal D of rationals times roots of unity), x @ y with
    one coefficient of one factor moved by one, x @ y with a row of x set
    to zero, or x @ y again."""
    n = draw(st.sampled_from(COMPARED))
    d = draw(st.integers(1, 4))
    fold = draw(st.booleans())
    zero_share = draw(st.sampled_from([0.0, 0.3]))
    phi, bits = euler_phi(n), fold_bits(n) if fold else 8

    def scalar(corner):
        if not (fold and corner) and draw(st.floats(0, 1)) < zero_share:
            return CycNum.zero(n)
        coeffs = [draw(st.integers(-(2**bits), 2**bits)) for _ in range(phi)]
        if fold:
            coeffs[0] = 2**bits  # in every nonzero entry, and x and y hold one at (0, 0)
        return CycNum(n, coeffs, draw(st.sampled_from([1, 2, 3, 12, 2**61 - 1])))

    def matrix():
        return CMatrix([[scalar(i == j == 0) for j in range(d)] for i in range(d)], n)

    x, y = matrix(), matrix()
    mode = draw(st.sampled_from(["rescaled", "perturbed", "zeroed", "same"]))
    if mode == "rescaled":
        scales = [
            make_root_of_unity(n, draw(st.integers(0, n - 1)))
            * Fraction(draw(st.sampled_from([-3, -1, 1, 2, 5])), draw(st.sampled_from([1, 4, 7])))
            for _ in range(d)
        ]
        u = x @ CMatrix.diagonal(scales, n)
        v = CMatrix.diagonal([c.inv() for c in scales], n) @ y
        return x, y, u, v
    if mode == "perturbed":
        i, j, c = (draw(st.integers(0, top)) for top in (d - 1, d - 1, phi - 1))
        left = draw(st.booleans())
        rows = [list(r) for r in (x if left else y).rows]
        e = rows[i][j]
        num = list(e._num)
        num[c] += draw(st.sampled_from([-1, 1])) * e._den
        rows[i][j] = CycNum(n, num, e._den)
        moved = CMatrix(rows, n)
        return (x, y, moved, y) if left else (x, y, x, moved)
    if mode == "zeroed":  # a zero row of x @ y, against x @ y
        i = draw(st.integers(0, d - 1))
        rows = [list(r) for r in x.rows]
        rows[i] = [CycNum.zero(n)] * d
        return CMatrix(rows, n), y, x, y
    return x, y, x, y


@PROPERTY
@given(compared_products())
def test_residue_comparison_is_equality_of_the_formed_products(case):
    x, y, u, v = case
    n = x.conductor
    if x[0, 0]._num[0] == 2 ** fold_bits(n):
        bound = x.dim * euler_phi(n) * _Side(x.rows, n).top * _Side(y.columns(), n).top
        assert cyclotomic._route(_field(n), bound)[1] == 0  # the fold route
    want = (x @ y) == (u @ v)
    assert linalg.products_equal(x, y, u, v) is want
    assert packed_equal(x.rows, y.columns(), u.rows, v.columns()) is want


def test_residue_comparison_edge_cases():
    n = 12
    one, zero = CMatrix.identity(2, n), CMatrix.zero(2, n)
    w = make_root_of_unity(n, 1)
    x = CMatrix([[1, w], [0, Fraction(1, 3)]], n)
    # a zero entry is equal to a zero entry only, either way round
    assert not linalg.products_equal(zero, one, one, one)
    assert not linalg.products_equal(one, one, zero, one)
    assert linalg.products_equal(zero, x, x, zero)
    # (x/2)(2I) = x I over other denominators, and x/2 I is not x I
    half = x.scalar_mul(Fraction(1, 2))
    assert linalg.products_equal(half, one.scalar_mul(2), x, one)
    assert not linalg.products_equal(half, one, x, one)
    # denominators past the slots' headroom are compared coefficient by
    # coefficient: x / big against (x / 2 big)(2I), and against (x / 2 big)(3I)
    big = 2**70 + 1
    x_big, x_2big = (x.scalar_mul(Fraction(1, c)) for c in (big, 2 * big))
    assert linalg.products_equal(x_big, one, x_2big, one.scalar_mul(2))
    assert not linalg.products_equal(x_big, one, x_2big, one.scalar_mul(3))
    # one product against another shape or conductor
    assert not packed_equal(x.rows, x.columns(), x.rows[:1], x.columns())
    with pytest.raises(ConductorMismatch):
        linalg.products_equal(x, x, x, x.promote(24))


# -- the kernel's other callers --------------------------------------------------


def ref_sum(xs, ys):
    acc = CycNum.zero(xs[0].conductor)
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def assert_same_scalars(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert (x.conductor, x._num, x._den) == (y.conductor, y._num, y._den)


@st.composite
def vectors(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    length = draw(st.integers(1, 6))
    zero_share = draw(st.sampled_from([0.0, 0.5]))
    return tuple(
        tuple(draw(scalars(n, zero_share)) for _ in range(length)) for _ in range(2)
    )


@PROPERTY
@given(vectors())
def test_dot_equals_the_sum_of_products(pair):
    xs, ys = pair
    assert_same_scalars([dot(xs, ys)], [ref_sum(xs, ys)])


def test_dot_refuses_empty_and_mixed_input():
    with pytest.raises(ValueError):
        dot([], [])
    x12, x3 = CycNum.one(12), CycNum.one(3)
    with pytest.raises(ConductorMismatch):
        dot([x12, x3], [x12, x12])
    with pytest.raises(ConductorMismatch):
        dot([x12], [x3])


@CALLERS
@given(pairs())
def test_apply_equals_the_row_sums(pair):
    a, b = pair
    vec = b.column(0)
    assert_same_scalars(a.apply(vec), [ref_sum(row, vec) for row in a.rows])


@CALLERS
@given(pairs(), st.data())
def test_polynomial_s_matrix_is_the_scaled_sum(pair, data):
    a, b = pair
    n, d = a.conductor, a.dim
    coeffs = tuple(data.draw(scalars(n, 0.25)) for _ in range(d))
    e, want, refs = reference(a, b), CMatrix.zero(d, n), []
    for c in coeffs:
        want = want + e.scalar_mul(c)
        refs.append(e)
        e = reference(b, e)
    # the builder refuses a B that is not cyclic; the sum is checked on
    # the reference basis then
    if b.is_cyclic():
        basis = extend._basis_matrices(a, b)
        for got, ref in zip(basis, refs):
            assert_same(got, ref)
    else:
        with pytest.raises(MinPolyMismatch):
            extend._basis_matrices(a, b)
        basis = refs
    assert_same(extend._combination(coeffs, basis), want)


def linearized_rows(a: CMatrix, b: CMatrix) -> list[tuple]:
    """The uniqueness system by definition: per family E_n (B^n AB, then
    B E_n A) and per entry (i, j) with i + j >= d, the coefficient of
    b_m b_n in (sum_k b_k E_k)^2, for m <= n, m + n > 0."""
    d = a.dim
    basis = [reference(a, b)]
    for _ in range(d - 1):
        basis.append(reference(b, basis[-1]))
    fbasis = [reference(reference(b, e), a) for e in basis]
    positions = [(i, j) for i in range(d) for j in range(d) if i + j >= d]
    monomials = [(m, n) for m in range(d) for n in range(m, d) if m + n > 0]
    rows = []
    for mats in (basis, fbasis):
        prod = {(m, n): reference(mats[m], mats[n]) for m in range(d) for n in range(d)}
        for i, j in positions:
            rows.append(tuple(
                prod[m, n][i, j] if m == n else prod[m, n][i, j] + prod[n, m][i, j]
                for m, n in monomials
            ))
    return rows


def uniqueness_inputs():
    out = [catalog.tw4([1, 1, 1, 1], 1)]  # a rank drop: "indeterminate"
    for seed in (1, 2, 3):
        rng = sampling.rng_for(seed)
        out.append(sampling.draw_tw4(rng)[0])
        out.append(sampling.draw_tw5(rng)[0])
        out.append(sampling.draw_binomial(rng, 3)[0])  # dimension 4
        tw2, info = sampling.draw_tw2(rng)
        while info["family"] != 2:  # family 2 makes AB skew lower triangular
            tw2, info = sampling.draw_tw2(rng)
        out.append(tensor_product(tw2, tw2))
    return out


def record_eliminations(monkeypatch) -> tuple[list, list]:
    """The exact (`linalg.Echelon`) and mod-p (`modular.EchelonModP`)
    eliminations built from here on, in order; each keeps its inserted
    rows, and a mod-p one its verdicts."""
    exact, mod_p = [], []

    class Exact(linalg.Echelon):
        def __init__(self, *args):
            self.inserted = []
            exact.append(self)
            super().__init__(*args)

        def insert(self, row):
            self.inserted.append(tuple(row))
            return super().insert(row)

    class ModP(modular.EchelonModP):
        def __init__(self, *args):
            self.inserted, self.verdicts = [], []
            mod_p.append(self)
            super().__init__(*args)

        def insert(self, row):
            self.inserted.append(self.unpack(row))
            self.verdicts.append(super().insert(row))
            return self.verdicts[-1]

    monkeypatch.setattr(linalg, "Echelon", Exact)
    monkeypatch.setattr(modular, "EchelonModP", ModP)
    return exact, mod_p


@pytest.mark.parametrize("rep", uniqueness_inputs())
def test_uniqueness_rows_rank_and_verdict_match_the_definition(rep, monkeypatch):
    want = linearized_rows(rep.A, rep.B)
    rank = matrix_rank(want)
    exact, mod_p = record_eliminations(monkeypatch)
    lin = extend.uniqueness_linearized(rep.A, rep.B)
    assert lin.rank == rank
    assert lin.verdict == ("unique-standard" if rank == lin.n_unknowns else "indeterminate")
    assert lin.n_equations == len(want)
    # one elimination mod p; rank N_d there answers without an exact row,
    # and a shortfall (tw4 with lambda = [1, 1, 1, 1], the tensor squares)
    # is replayed: one exact elimination receives exactly the rows found
    # independent mod p, in order, with no second pass mod p or exactly
    assert len(mod_p) == 1
    if rank == lin.n_unknowns:
        assert exact == []
    else:
        kept = [row for row, verdict in zip(want, mod_p[0].verdicts) if verdict]
        assert len(kept) == rank < len(want)
        assert [e.inserted for e in exact] == [kept]
    # with A and B given no image in F_p, the exact rows answer
    exact.clear()
    mod_p.clear()
    monkeypatch.setattr(modular, "reduce_rows", lambda rows, conductor: None)
    assert extend.uniqueness_linearized(fresh(rep.A), fresh(rep.B)) == lin
    assert mod_p == []
    assert [e.inserted for e in exact] == [want]


@pytest.mark.parametrize("rep", uniqueness_inputs())
def test_uniqueness_rows_mod_p_are_the_images_of_the_definition(rep, monkeypatch):
    _, mod_p = record_eliminations(monkeypatch)
    extend.uniqueness_linearized(rep.A, rep.B)
    want = modular.reduce_rows(linearized_rows(rep.A, rep.B), rep.conductor)
    p = modular.ring_map(rep.conductor)[0]
    assert len(mod_p) == 1 and mod_p[0].p == p
    # a row goes in unreduced: each entry a residue or a sum of two
    assert all(0 <= x < 2 * p for row in mod_p[0].inserted for x in row)
    assert [[x % p for x in row] for row in mod_p[0].inserted] == want


P1 = modular.ring_map(1)[0]


@pytest.mark.parametrize(
    "lams, gamma2, rank",
    [
        # p divides a denominator of A and B: no image in F_p
        ([Fraction(1, P1), P1, 2, 2], 2, 9),
        ([Fraction(1, P1)] * 4, Fraction(1, P1**2), 8),
        # the image of tw4([1, 4, 1, 1], 2), rank 8, but rank 9 over Q
        ([1, 4, 1, (1 + P1) ** 2], 2 * (1 + P1), 9),
    ],
)
def test_uniqueness_rank_off_the_mod_p_route_comes_from_the_exact_rows(
    lams, gamma2, rank, monkeypatch
):
    exact, mod_p = record_eliminations(monkeypatch)
    rep = catalog.tw4(lams, gamma2)
    lin = extend.uniqueness_linearized(rep.A, rep.B)
    assert (lin.rank, lin.n_unknowns) == (rank, 9)
    assert lin.verdict == ("unique-standard" if rank == 9 else "indeterminate")
    # an elimination mod p only where A and B have an image there
    images = [modular.reduce_rows(m.rows, 1) for m in (rep.A, rep.B)]
    assert len(mod_p) == (None not in images)
    want = linearized_rows(rep.A, rep.B)
    if not mod_p:
        assert [e.inserted for e in exact] == [want]
        return
    # the unlucky prime: F_p reads rank 8, so the replay's elimination
    # receives the 8 rows found independent there; the others do not all
    # lie in their span, and a second elimination receives every row
    kept = [row for row, verdict in zip(want, mod_p[0].verdicts) if verdict]
    assert len(kept) == 8
    assert [e.inserted for e in exact] == [kept, want]
