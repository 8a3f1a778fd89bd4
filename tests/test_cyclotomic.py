"""Exact field arithmetic: examples, axioms, and the floating shadow."""

import math
import random
from fractions import Fraction

import pytest

from loopbraid import cyclotomic
from loopbraid.cyclotomic import (
    CycNum,
    _Side,
    common_field,
    cyclotomic_polynomial,
    dot,
    euler_phi,
    make_root_of_unity,
    nth_root_in_field,
    omega,
    packed_product,
    rational_nth_root,
    roots_of_unity,
)
from loopbraid.catalog import perm3
from loopbraid.errors import ConductorMismatch, DivisionByZero, NotASubfield
from loopbraid.linalg import CMatrix

CONDUCTORS = [3, 4, 5, 12, 15, 60]


def rand_cyc(rng, n, height=5):
    phi = euler_phi(n)
    return CycNum.from_coeffs(
        n,
        [
            Fraction(rng.randint(-height, height), rng.randint(1, height))
            for _ in range(phi)
        ],
    )


def test_phi_and_cyclotomic_polys():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 5, 12, 60)] == [1, 1, 2, 2, 4, 4, 16]
    for n in range(1, 200):
        assert euler_phi(n) == sum(math.gcd(k, n) == 1 for k in range(1, n + 1))
    for n in (0, -3):
        with pytest.raises(ValueError):
            euler_phi(n)
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_identity_case():
    assert make_root_of_unity(1, 0).is_one


def test_omega_minimal_polynomial():
    w = make_root_of_unity(3, 1)
    assert (make_root_of_unity(3, 1) + make_root_of_unity(3, 2) + 1).is_zero
    assert (w**3).is_one


def test_twelfth_root_gives_i():
    i = make_root_of_unity(12, 3)
    assert i * i == CycNum.from_rational(-1, 12)


def test_inv_and_conj_of_omega():
    w = omega(3)
    assert w.inv() == w * w
    assert w.conj() == w * w
    assert w.conj().conj() == w


def test_inverse_property_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice(CONDUCTORS)
        x = rand_cyc(rng, n)
        if x.is_zero:
            continue
        assert (x * x.inv()).is_one


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        CycNum.zero(3).inv()
    with pytest.raises(DivisionByZero):
        omega(3) / CycNum.zero(3)


@pytest.mark.parametrize("n", [1, 3, 12, 60, 105])
def test_inverse_of_a_rational_takes_no_product(n, monkeypatch):
    # a rational c / den inverts to den / c on its first coefficient,
    # without the Galois tower's schoolbook products
    values = [CycNum.from_rational(q, n) for q in (Fraction(3, 5), Fraction(-7, 2), 1, -1, 12)]
    with monkeypatch.context() as m:
        m.setattr(cyclotomic, "_mul_num", None)
        inverses = [x.inv() for x in values]
        with pytest.raises(DivisionByZero):
            CycNum.zero(n).inv()
    for x, y in zip(values, inverses):
        assert y == CycNum.from_rational(1 / x.as_rational(), n)
        assert y.conductor == n and (x * y).is_one


def test_conductor_mixing_is_explicit():
    w = omega(3)
    i = make_root_of_unity(4, 1)
    # every operator, reflected forms included, and every lift into a matrix
    mixed = [
        lambda: w + i,
        lambda: w - i,
        lambda: w * i,
        lambda: w / i,
        lambda: w.__radd__(i),
        lambda: w.__rsub__(i),
        lambda: w.__rmul__(i),
        lambda: w.__rtruediv__(i),
        lambda: CMatrix([[w]], 4),
        lambda: CMatrix([[w]]).scalar_mul(i),
    ]
    for call in mixed:
        with pytest.raises(ConductorMismatch):
            call()
    assert w.promote(12) * i.promote(12) == make_root_of_unity(12, 7)
    with pytest.raises(TypeError):
        _ = w / "3"
    with pytest.raises(TypeError):
        _ = "3" / w


def test_promotion():
    w = omega(3)
    w15 = w.promote(15)
    assert w15.conductor == 15
    assert abs(w15.to_complex() - w.to_complex()) < 1e-12
    assert CycNum.one(3).promote(60).is_one
    assert w.promote(3) == w
    with pytest.raises(NotASubfield):
        w.promote(4)


def test_common_field_joins_mixed_inputs():
    w, i, rep = omega(3), make_root_of_unity(4, 1), perm3(2)
    (x, y, q, none, m, r), n = common_field(w, i, Fraction(1, 2), None, CMatrix([[w]]), rep)
    assert n == 12
    assert (x, y, q, none) == (w, i, Fraction(1, 2), None)
    assert all(v.conductor == 12 for v in (x, y, q, m, r))
    assert x * y == make_root_of_unity(12, 7) and r.A == rep.A
    assert common_field(2, extra=5) == ([CycNum.from_rational(2, 5)], 5)
    assert common_field() == ([], 1)


def test_promote_round_trip_preserves_value():
    rng = random.Random(3)
    for _ in range(20):
        x = rand_cyc(rng, 5)
        y = x.promote(60)
        assert abs(x.to_complex() - y.to_complex()) < 1e-12


@pytest.mark.parametrize("n, m", [(3, 6), (3, 12), (4, 12), (12, 60), (5, 15), (1, 7), (6, 18)])
def test_equality_and_hash_across_conductors(n, m):
    rng = random.Random(n * 100 + m)
    for _ in range(10):
        x = rand_cyc(rng, n)
        y = x.promote(m)
        assert x == y and y == x and hash(x) == hash(y)
        assert x != y + 1 and y + 1 != x
    # equal in the lcm field, unequal outside the common subfield
    assert make_root_of_unity(m, m // n) == make_root_of_unity(n, 1)
    assert make_root_of_unity(m, 1) != CycNum.one(n)
    assert CycNum.one(3) == CycNum.one(6) and hash(CycNum.one(3)) == hash(CycNum.one(6))
    assert omega(3) != make_root_of_unity(4, 1)
    assert omega(3) == omega(12) and omega(3) != omega(12) * omega(12)


def test_hash_agrees_with_rational_values():
    for q in (0, 1, -3, Fraction(2, 3), Fraction(-7, 5)):
        for n in (1, 3, 12, 60):
            assert hash(CycNum.from_rational(q, n)) == hash(q)
    assert len({CycNum.one(3), 1}) == 1
    assert 1 in {CycNum.one(3)} and CycNum.one(12) in {1}
    assert {Fraction(1, 2), CycNum.from_rational(Fraction(1, 2), 5)} == {Fraction(1, 2)}
    assert len({omega(3), omega(12), omega(3) * omega(3), 1, CycNum.one(60)}) == 3


def test_is_rational_integer():
    w = omega(3)
    x = 1 + w + w * w + 5
    assert x.as_integer() == 5
    assert x.as_integer() == 5
    assert w.as_integer() is None
    assert CycNum.from_rational(Fraction(1, 2), 3).as_integer() is None


def test_cube_roots_of_one():
    roots = nth_root_in_field(CycNum.one(3), 3)
    w = omega(3)
    assert set(roots) == {CycNum.one(3), w, w * w}
    assert nth_root_in_field(w, 1) == [w]


def test_square_roots_of_omega():
    # The two square roots of w are -+w^2 = +-(1 + w); they already live in
    # Q(zeta_3).  Oracle: square the returned elements.
    w = omega(3)
    roots = nth_root_in_field(w, 2)
    assert len(roots) == 2
    for r in roots:
        assert r * r == w
    roots12 = nth_root_in_field(w.promote(12), 2)
    assert len(roots12) == 2
    for r in roots12:
        assert r * r == w.promote(12)


def test_square_roots_of_minus_one():
    i = make_root_of_unity(4, 1)
    roots = nth_root_in_field(CycNum.from_rational(-1, 4), 2)
    assert set(roots) == {i, -i}


def test_roots_requiring_factorization():
    # sqrt(-3) = +-(1 + 2w) is not a rational multiple of a root of unity
    roots = nth_root_in_field(CycNum.from_rational(-3, 3), 2)
    assert len(roots) == 2
    for r in roots:
        assert r * r == -3
    # sqrt(5) in Q(zeta_5) via the Gauss sum
    roots = nth_root_in_field(CycNum.from_rational(5, 5), 2)
    assert len(roots) == 2
    for r in roots:
        assert r * r == 5


@pytest.mark.parametrize("q, n", [(1, 0), (-1, 0), (1, -1), (-1, -1)])
def test_rational_nth_root_refuses_an_order_below_one(q, n):
    with pytest.raises(ValueError, match="root order must be >= 1"):
        rational_nth_root(Fraction(q), n)


def test_rootless_cases_are_empty():
    assert nth_root_in_field(CycNum.from_rational(2, 3), 2) == []
    # 36^(-1/3) generates a non-abelian extension: no cyclotomic field has it
    assert nth_root_in_field(CycNum.from_rational(Fraction(1, 36), 12), 3) == []


def test_roots_of_unity_group_order():
    assert len(roots_of_unity(3)) == 6  # <-zeta_3> has order 6
    assert len(roots_of_unity(4)) == 4
    assert len(roots_of_unity(12)) == 12
    for u in roots_of_unity(12):
        assert (u**12).is_one


@pytest.mark.parametrize("n", CONDUCTORS)
def test_field_axioms(n):
    rng = random.Random(100 + n)
    for _ in range(200):
        a, b, c = (rand_cyc(rng, n, height=3) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == CycNum.zero(n)
        if not a.is_zero:
            assert (a * a.inv()).is_one


@pytest.mark.parametrize("n", [3, 4, 12, 15])
def test_conj_is_ring_involution(n):
    rng = random.Random(n)
    for _ in range(40):
        a, b = rand_cyc(rng, n), rand_cyc(rng, n)
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a
        assert (a * a.conj()).is_real


def test_floating_shadow():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.choice(CONDUCTORS)
        a, b = rand_cyc(rng, n, height=4), rand_cyc(rng, n, height=4)
        za, zb = a.to_complex(), b.to_complex()
        assert abs((a + b).to_complex() - (za + zb)) < 1e-9
        assert abs((a * b).to_complex() - (za * zb)) < 1e-9
        assert abs(a.conj().to_complex() - za.conjugate()) < 1e-9
        if abs(zb) > 1e-6 and not b.is_zero:
            assert abs((a / b).to_complex() - (za / zb)) < 1e-9


def test_zeta_power_n_is_one():
    for n in CONDUCTORS:
        z = make_root_of_unity(n, 1)
        assert (z**n).is_one
        assert z ** (-1) == z.conj()


def test_dot_matches_sum_of_products():
    rng = random.Random(5)
    xs = [rand_cyc(rng, 12) for _ in range(4)]
    ys = [rand_cyc(rng, 12) for _ in range(4)]
    expected = CycNum.zero(12)
    for x, y in zip(xs, ys):
        expected = expected + x * y
    assert dot(xs, ys) == expected


def test_coeff_vector_always_reduced_length():
    for n in CONDUCTORS:
        x = make_root_of_unity(n, n - 1) * Fraction(3, 7)
        assert len(x.coeffs) == euler_phi(n)
        y = x**5 + x
        assert len(y.coeffs) == euler_phi(n)


def test_roots_of_unity_built_once_per_conductor():
    first = roots_of_unity(60)
    assert isinstance(first, tuple)
    assert roots_of_unity(60) is first
    gen = make_root_of_unity(60, 1)
    assert first[1] == gen
    for j, u in enumerate(first):
        assert u == gen**j
        assert (u * first[-j]).is_one


@pytest.mark.parametrize(
    "call, error, text",
    [
        (
            lambda: packed_product([[CycNum.one(1)]], _Side([[CycNum.one(3)]], 3)),
            ConductorMismatch,
            "share a conductor",
        ),
        (lambda: omega(4), NotASubfield, "divisible by 3"),
        (lambda: nth_root_in_field(omega(3), 0), ValueError, "root order must be >= 1"),
        (lambda: omega(3) ** 1.5, TypeError, "exponent must be an integer"),
    ],
    ids=["packed-columns", "omega", "nth-root-order-0", "float-exponent"],
)
def test_cyclotomic_refusals(call, error, text):
    with pytest.raises(error, match=text):
        call()
