"""Property tests of the Kronecker-packed matrix product behind CMatrix @.

The reference is the schoolbook sum of CycNum products, built from `*` and
`+` alone, so it shares no code with the packing and unpacking."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbraid.cyclotomic import CycNum, euler_phi
from loopbraid.linalg import CMatrix

PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)
CONDUCTORS = (1, 3, 12, 60)


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


@pytest.mark.parametrize("n", CONDUCTORS)
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_slots_at_the_bound(n, d, sign):
    # every coefficient of every entry is the same largest value m, so the
    # middle slot of each output entry is exactly d * phi * m^2, the bound
    # the slot width is taken from; over m the bound's bit length meets
    # every residue mod 8, so some width fills its bytes exactly
    phi = euler_phi(n)
    hits = set()
    for m in [v for b in range(1, 30) for v in (2**b - 1, math.isqrt(2 ** (2 * b + 1)))]:
        m *= sign
        hits.add((d * phi * m * m).bit_length() % 8)
        x = CMatrix([[CycNum(n, [m] * phi)] * d] * d, n)
        y = CMatrix([[CycNum(n, [abs(m)] * phi)] * d] * d, n)
        assert_same(x @ y, reference(x, y))
    assert hits == set(range(8))


def test_exact_zero_product():
    # a strictly upper triangular e_01 squares to zero
    for n in CONDUCTORS:
        rows = [[CycNum.zero(n)] * 3 for _ in range(3)]
        rows[0][1] = CycNum(n, [5] * euler_phi(n), 3)
        m = CMatrix(rows, n)
        assert (m @ m).is_zero
