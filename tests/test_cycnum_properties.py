"""Derandomized property tests of `CycNum` arithmetic against sympy's
algebraic fields: the field axioms, and `inv`, `conj` and `promote`, at
conductors 1, 12 and 60; and `nth_root_in_field`'s search against a scan
over the roots of unity, at conductors 1, 3, 12, 60 and 105.

Both sides use the power basis 1, zeta, ..., zeta^(phi(N)-1) reduced mod
Phi_N, with zeta = exp(2 pi i / N) the generator of
`sympy.QQ.algebraic_field(zeta)`; at N = 1 the field is sympy's QQ.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbraid import cyclotomic
from loopbraid.cyclotomic import CycNum, euler_phi, make_root_of_unity

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
CONDUCTORS = [1, 12, 60]
_FIELDS = {}


def _field(n):
    if n not in _FIELDS:
        _FIELDS[n] = (
            sympy.QQ
            if n == 1
            else sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / n))
        )
    return _FIELDS[n]


def _to_sympy(x: CycNum):
    k = _field(x.conductor)
    coeffs = [sympy.QQ(c.numerator, c.denominator) for c in x.coeffs]
    if x.conductor == 1:
        return coeffs[0]
    return k(list(reversed(coeffs)))  # sympy lists the highest degree first


def _zeta_power(n, e):
    """zeta_n^e in sympy's Q(zeta_n), by sympy's own reduction."""
    k = _field(n)
    return k.one if n == 1 else k([1, 0]) ** (e % n)


def _evaluate(x: CycNum, n, step):
    """sum_i c_i zeta_n^(step i) in sympy's Q(zeta_n), for x = sum_i c_i zeta^i."""
    k = _field(n)
    acc = k.zero
    for i, c in enumerate(x.coeffs):
        acc += k.convert(sympy.QQ(c.numerator, c.denominator)) * _zeta_power(n, step * i)
    return acc


@st.composite
def elements(draw, n):
    """Zero, a rational times a root of unity, or a dense element."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return CycNum.zero(n)
    q = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    if kind == 1:
        return make_root_of_unity(n, draw(st.integers(0, n - 1))) * q
    coeffs = [
        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        for _ in range(euler_phi(n))
    ]
    return CycNum.from_coeffs(n, coeffs)


def _triples(n):
    return st.tuples(elements(n), elements(n), elements(n))


@PROPERTY
@given(st.sampled_from(CONDUCTORS).flatmap(_triples))
def test_arithmetic_matches_sympy(abc):
    a, b, c = abc
    sa, sb = _to_sympy(a), _to_sympy(b)
    assert _to_sympy(a + b) == sa + sb
    assert _to_sympy(a - b) == sa - sb
    assert _to_sympy(-a) == -sa
    assert _to_sympy(a * b) == sa * sb
    if not b.is_zero:
        assert _to_sympy(a / b) == sa / sb


@PROPERTY
@given(st.sampled_from(CONDUCTORS).flatmap(_triples))
def test_field_axioms(abc):
    a, b, c = abc
    n = a.conductor
    zero, one = CycNum.zero(n), CycNum.one(n)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero
    assert (a - b) + b == a
    if not a.is_zero:
        assert a * a.inv() == one
        assert a.inv().inv() == a


@PROPERTY
@given(st.sampled_from(CONDUCTORS).flatmap(elements))
def test_inv_matches_sympy(a):
    if a.is_zero:
        return
    k = _field(a.conductor)
    assert _to_sympy(a.inv()) == k.one / _to_sympy(a)


@PROPERTY
@given(st.sampled_from(CONDUCTORS).flatmap(_triples))
def test_conj_is_zeta_to_its_inverse(abc):
    a, b, _ = abc
    n = a.conductor
    assert _to_sympy(a.conj()) == _evaluate(a, n, n - 1)
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert abs(a.conj().to_complex() - a.to_complex().conjugate()) < 1e-9 * (
        1 + abs(a.to_complex())
    )


@PROPERTY
@given(
    st.sampled_from([(1, 1), (1, 12), (1, 60), (12, 12), (12, 60), (60, 60)]).flatmap(
        lambda nm: st.tuples(st.just(nm[1]), _triples(nm[0]))
    )
)
def test_promote_matches_sympy_and_is_a_ring_map(case):
    m, (a, b, _) = case
    n = a.conductor
    assert _to_sympy(a.promote(m)) == _evaluate(a, m, m // n)
    assert a.promote(m) == a
    assert (a * b).promote(m) == a.promote(m) * b.promote(m)
    assert (a + b).promote(m) == a.promote(m) + b.promote(m)
    if not a.is_zero:
        assert a.inv().promote(m) == a.promote(m).inv()


def _scanned_roots(x: CycNum, n: int) -> list[CycNum]:
    """The reference for `nth_root_in_field`'s search: y = u r for every
    root of unity u of the field with x / u^n a rational r^n, one product
    x u^-n per root."""
    found = {}
    roots = cyclotomic.roots_of_unity(x.conductor)
    for j, u in enumerate(roots):
        q = (x * roots[(-n * j) % len(roots)]).as_rational()
        r = None if q is None else cyclotomic.rational_nth_root(q, n)
        if r is not None:
            y = u * r
            found.setdefault((y._num, y._den), y)
    return sorted(found.values(), key=lambda y: (y._num, y._den))


@st.composite
def root_questions(draw):
    """(x, n): a rational multiple of a root of unity, its cube, or a sum
    of two such terms, which is mostly no such multiple."""
    n_field = draw(st.sampled_from([1, 3, 12, 60, 105]))

    def term():
        q = Fraction(draw(st.integers(-8, 8).filter(bool)), draw(st.integers(1, 8)))
        return make_root_of_unity(n_field, draw(st.integers(0, 2 * n_field - 1))) * q

    x = term()
    shape = draw(st.sampled_from(["multiple", "cube", "sum"]))
    if shape == "cube":
        x = x * x * x
    elif shape == "sum":
        x = x + term()
    return x, draw(st.integers(2, 6))


@PROPERTY
@given(root_questions())
def test_nth_root_in_field_finds_what_the_scan_over_roots_finds(case):
    x, n = case
    want = _scanned_roots(x, n)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cyclotomic, "_roots_by_factorization", lambda x, n: ["factored"])
        got = cyclotomic.nth_root_in_field(x, n)
    fallback = ["factored"] if n <= 3 and euler_phi(x.conductor) > 1 else []
    assert got == (want or fallback)
    # the lookup finds a root-of-unity part iff the scan for n = 1 does
    assert (cyclotomic._root_of_unity_part(x) is None) == (not _scanned_roots(x, 1))
    for y in want:
        assert y**n == x
