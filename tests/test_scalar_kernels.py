"""The scalar kernels against plain references written here: the Galois
tower inverse against the product of all conjugates, the normalizing
constructor `_new` against Fraction arithmetic, and the fused elimination
row of `linalg._eliminate` against `vec[j] - f * b`.

The conductors cover every shape of tower: 2-groups of units (4, 12, 16,
60, ...), odd prime indices (7, 9, 11, 13, 21, 35, 63, 84) and the trivial
group (1, 2).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbraid.cyclotomic import (
    CycNum,
    _galois_tower,
    _new,
    euler_phi,
    make_root_of_unity,
)
from loopbraid.errors import ConductorMismatch
from loopbraid.linalg import _eliminate

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
CONDUCTORS = [1, 2, 3, 4, 5, 7, 9, 11, 12, 13, 15, 16, 20, 21, 24, 35, 60, 63, 84]


@st.composite
def elements(draw, n, zero=True):
    """A dense element, a rational times a root of unity, or zero."""
    kind = draw(st.integers(0 if zero else 1, 2))
    if kind == 0:
        return CycNum.zero(n)
    q = Fraction(draw(st.sampled_from([-5, -2, -1, 1, 3, 4])), draw(st.integers(1, 4)))
    if kind == 1:
        return make_root_of_unity(n, draw(st.integers(0, n - 1))) * q
    coeffs = [
        Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
        for _ in range(euler_phi(n))
    ]
    x = CycNum.from_coeffs(n, coeffs)
    return x if zero or x else CycNum.from_rational(q, n)


def _conjugate(x: CycNum, a: int) -> CycNum:
    """sigma_a(x) = sum_j c_j zeta^(a j), summed term by term."""
    n = x.conductor
    acc = CycNum.zero(n)
    for j, c in enumerate(x.coeffs):
        if c:
            acc = acc + make_root_of_unity(n, a * j) * c
    return acc


def _reference_inverse(x: CycNum) -> CycNum:
    """prod_{a != 1} sigma_a(x) / N(x), one conjugate at a time."""
    n = x.conductor
    cof = CycNum.one(n)
    for a in range(2, n):
        if math.gcd(a, n) == 1:
            cof = cof * _conjugate(x, a)
    norm = (x * cof).as_rational()
    assert norm is not None and norm != 0
    return cof * (1 / norm)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_tower_indices_multiply_to_phi(n):
    steps = _galois_tower(n)
    assert math.prod(len(s) + 1 for s in steps) == euler_phi(n)
    for step in steps:
        p, t = len(step) + 1, step[0]
        assert all(p % q for q in range(2, p))  # every index is prime
        assert list(step) == [pow(t, j, n) for j in range(1, p)]


def test_tower_shapes():
    assert _galois_tower(60) == ((49,), (7,), (11,), (13,))
    odd = [n for n in CONDUCTORS if any(len(s) > 1 for s in _galois_tower(n))]
    assert odd == [7, 9, 11, 13, 21, 35, 63, 84]


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.data())
def test_tower_inverse_is_the_product_of_the_other_conjugates(n, data):
    x = data.draw(elements(n, zero=False))
    inv = x.inv()
    assert inv == _reference_inverse(x)
    assert x * inv == CycNum.one(x.conductor)
    assert inv.inv() == x


@pytest.mark.parametrize("n", CONDUCTORS)
def test_inverse_of_a_root_of_unity_and_of_a_rational(n):
    for k in range(0, n, max(1, n // 5)):
        z = make_root_of_unity(n, k)
        assert z.inv() == make_root_of_unity(n, -k)
    q = CycNum.from_rational(Fraction(-3, 7), n)
    assert q.inv() == CycNum.from_rational(Fraction(-7, 3), n)


@PROPERTY
@given(
    st.sampled_from([1, 3, 12, 60]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(-(10**20), 10**20) | st.integers(-12, 12) | st.just(0),
                min_size=euler_phi(n),
                max_size=euler_phi(n),
            ),
            st.integers(-(10**6), 10**6).filter(bool) | st.sampled_from([-1, 1, -12, 60]),
            st.integers(0, 3),
        )
    )
)
def test_new_normalizes_like_fractions(case):
    n, num, den, scale = case
    num = [v * 6**scale for v in num]  # a shared factor for the gcd to remove
    den *= 6**scale
    x = _new(n, num, den)
    assert x.conductor == n
    assert x._den > 0 and math.gcd(*x._num, x._den) == 1
    assert x.coeffs == tuple(Fraction(v, den) for v in num)
    y = CycNum(n, num, den)
    assert (y._num, y._den) == (x._num, x._den)


def test_new_on_zero_vectors_and_negative_denominators():
    # `_new` and `CycNum(...)` share one normalizing body
    for make in (_new, CycNum):
        for n in (1, 12, 60):
            phi = euler_phi(n)
            for den in (1, -1, 7, -30):
                z = make(n, [0] * phi, den)
                assert (z._num, z._den) == ((0,) * phi, 1)
                assert z == CycNum.zero(n) and z.is_zero
            x = make(n, [4] + [-6] * (phi - 1), -8)
            assert x.coeffs == (Fraction(-1, 2),) + (Fraction(3, 4),) * (phi - 1)
            assert x._den == (4 if phi > 1 else 2)
            assert type(x) is CycNum and x.conductor == n


def test_init_keeps_its_checks():
    with pytest.raises(ValueError, match=r"length phi\(12\) = 4"):
        CycNum(12, [1, 2, 3])
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        CycNum(12, [1, 0, 0, 0], 0)
    assert CycNum(4, iter([2, -4]), -6) == CycNum(4, [-1, 2], 3)


@PROPERTY
@given(
    st.sampled_from([3, 12, 60]).flatmap(
        lambda n: st.tuples(
            elements(n),
            st.lists(elements(n), min_size=5, max_size=5),
            st.lists(elements(n), min_size=5, max_size=5),
            st.integers(0, 4),
        )
    )
)
def test_fused_row_matches_subtracting_the_product(case):
    f, vec, row, start = case
    expected = vec[:start] + [v - f * b for v, b in zip(vec[start:], row[start:])]
    got = list(vec)
    _eliminate(got, f, row, start)
    assert [(x._num, x._den) for x in got] == [(x._num, x._den) for x in expected]


def test_fused_row_refuses_mixed_conductors():
    one3, one4 = CycNum.one(3), CycNum.one(4)
    with pytest.raises(ConductorMismatch):
        _eliminate([one3, one4], one3, [one3, one3], 0)
    with pytest.raises(ConductorMismatch):
        _eliminate([one3, one3], one3, [one3, one4], 0)


def test_zero_and_one_are_shared_per_conductor():
    assert CycNum.zero(60) is CycNum.zero(60) and CycNum.one(60) is CycNum.one(60)
    assert CycNum.zero(60).is_zero and CycNum.one(60).is_one
