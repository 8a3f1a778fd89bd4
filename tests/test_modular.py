"""The ring map into F_p and the mod-p fast paths of matrix_rank,
algebra_dimension, CMatrix.is_cyclic and uniqueness_linearized: the prime
and root, the lazily reduced elimination against an eager one, rank mod p
against the exact rank, every fast path against its exact fallback, and
the exact replay of a shortfall against verdicts mod p that lie."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbraid import catalog, extend, linalg, modular, sampling
from loopbraid.cyclotomic import CycNum, cyclotomic_polynomial, make_root_of_unity
from loopbraid.errors import LoopBraidError
from loopbraid.linalg import CMatrix, Echelon, algebra_dimension, matrix_rank
from loopbraid.repcore import LBRep, tensor_product

from extension_support import standard_extensions

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 60, 105])
def test_ring_map_prime_and_root(n):
    p, r = modular.ring_map(n)
    assert p > 2**31 and (p - 1) % n == 0
    assert modular.is_prime(p) and sympy.isprime(p)
    # the smallest such prime: no q = 1 (mod n) between 2^31 and p is prime
    assert not any(sympy.isprime(q) for q in range(p - n, 2**31, -n))
    phi_n = cyclotomic_polynomial(n)
    assert sum(c * pow(r, j, p) for j, c in enumerate(phi_n)) % p == 0
    assert modular.ring_map(n) is modular.ring_map(n)


@PROPERTY
@given(st.one_of(st.integers(0, 10**6), st.integers(2**31, 2**31 + 10**6)))
def test_is_prime_matches_sympy(n):
    assert modular.is_prime(n) == sympy.isprime(n)


def test_is_prime_on_carmichael_numbers():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751, 2152302898747):
        assert not modular.is_prime(n)


@st.composite
def scalars(draw, n):
    """Zero a quarter of the time, else a small rational times a root of unity."""
    if draw(st.integers(0, 3)) == 0:
        return CycNum.zero(n)
    q = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    return make_root_of_unity(n, draw(st.integers(0, n - 1))) * q


@st.composite
def row_lists(draw):
    """r x c rows; a third repeat a combination of two rows."""
    n = draw(st.sampled_from([1, 12]))
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(scalars(n)) for _ in range(c)] for _ in range(r)]
    if r > 2 and draw(st.integers(0, 2)) == 0:
        f = draw(scalars(n))
        rows[-1] = [x + f * y for x, y in zip(rows[0], rows[1])]
    return n, rows


@PROPERTY
@given(row_lists())
def test_rank_mod_p_bounds_the_exact_rank(case):
    n, rows = case
    exact = len(Echelon(len(rows[0]), n, rows).rows)
    image = modular.reduce_rows(rows, n)
    assert image is not None
    ech = modular.EchelonModP(modular.ring_map(n)[0], len(rows[0]))
    independent = [ech.insert(ech.pack(row)) for row in image]
    assert sum(independent) == len(ech.rows) <= exact
    assert matrix_rank(rows) == exact


class EagerEchelonModP:
    """The reference: the row and every row operation reduced mod p at once."""

    def __init__(self, p):
        self.p, self.rows = p, []

    def insert(self, row):
        p = self.p
        vec = [a % p for a in row]
        for piv, basis_row in self.rows:
            f = vec[piv]
            if f:
                vec = [(a - f * b) % p for a, b in zip(vec, basis_row)]
        piv = next((j for j, a in enumerate(vec) if a), None)
        if piv is None:
            return False
        scale = pow(vec[piv], -1, p)
        self.rows.append((piv, [a * scale % p for a in vec]))
        return True


@st.composite
def insert_sequences(draw):
    """Rows over F_p for the packed insert, which takes entries below
    width p^2: often 0, p - 1, p, 2p - 1 (a uniqueness row is a sum of two
    residues) or width p^2 - 1, and some rows all 2p - 1.  In a mixed
    run about half the rows are combinations of the rows before them, so
    dependent on them, with p added to some entries; a full run has width
    dense rows, of full rank for a large p, and then up to three more, each
    reduced by width row operations.  Widths reach 81 (d = 9), the primes
    are those of N = 1, 3, 60 and 105, and 7.  The entries come from one
    drawn seed, so a wide run stays a small example."""
    p = draw(st.sampled_from([7, *(modular.ring_map(n)[0] for n in (1, 3, 60, 105))]))
    width = draw(st.sampled_from([1, 2, 5, 9, 16, 36, 49, 81]))
    full = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = (0, p - 1, p, 2 * p - 1, width * p * p - 1, None)

    def entry():
        kind = rng.choice(kinds)
        return rng.randrange(2 * p) if kind is None else kind

    rows = []
    for i in range(width + rng.randint(1, 3) if full else rng.randint(1, width + 3)):
        if rng.random() < 0.1:
            rows.append([2 * p - 1] * width)
        elif rows and not (full and i < width) and rng.random() < 0.5:
            coeffs = [entry() for _ in rows]
            rows.append([
                sum(c * r[j] for c, r in zip(coeffs, rows)) % p + p * rng.randint(0, 1)
                for j in range(width)
            ])
        else:
            rows.append([entry() for _ in range(width)])
    return p, rows


@PROPERTY
@given(insert_sequences())
def test_lazy_insert_keeps_the_rows_of_the_eager_reduction(case):
    p, rows = case
    lazy, eager = modular.EchelonModP(p, len(rows[0])), EagerEchelonModP(p)
    for row in rows:
        packed = lazy.pack(row)
        assert lazy.unpack(packed) == row
        assert lazy.insert(packed) == eager.insert(row)
    # a stored row is kept negated: read back and reduced, it is the eager row
    assert [
        (piv, [-a % p for a in lazy.unpack(neg)]) for piv, neg in lazy.rows
    ] == eager.rows


def test_packed_slots_hold_every_row_operation():
    # the largest slot an insert can meet: width p^2 - 1 in every entry,
    # then width row operations with f = p - 1 on rows of entries p - 1
    p = modular.ring_map(105)[0]
    for width in (1, 9, 36, 81, 200):
        ech = modular.EchelonModP(p, width)
        assert 2 * width * p * p <= 1 << ech.slot
        assert (2 * width * p * p).bit_length() > ech.slot - 8
        most = width * p * p - 1 + width * (p - 1) ** 2
        assert most < 1 << ech.slot


def test_span_closure_products_mod_p_match_matmul():
    rng = random.Random(3)
    p = modular.ring_map(12)[0]
    for d in (1, 2, 4, 9):
        ech = modular.EchelonModP(p, d * d)
        products = modular._PackedProducts(ech)
        g, m = ([[rng.randrange(p) for _ in range(d)] for _ in range(d)] for _ in range(2))
        gm = products(products.flat(g), products.flat(m))
        want = modular.matmul(g, m, p)
        assert [x % p for x in ech.unpack(gm)] == [x for col in zip(*want) for x in col]
        # a product enters unreduced, and as a right operand it is reduced
        again = products(products.flat(g), gm)
        assert [x % p for x in ech.unpack(again)] == [
            x for col in zip(*modular.matmul(g, want, p)) for x in col
        ]


# -- every fast path against its exact fallback --------------------------------


def _inputs():
    """Sampling-family pairs and their standard extensions, tw2 tensor
    squares (reducible), a dense conjugate and counterexample6."""
    rng = sampling.rng_for(5)
    reps = []
    for fam in ("tw3", "tw4", "tw5", "binomial", "perm3", "lkb3"):
        rep, _ = sampling.draw_family(fam, rng)
        reps.append(rep)
        if rep.S1 is None:
            reps += [ext for ext, _ in standard_extensions(rep.A, rep.B)[:1]]
    for l1, l2 in ((1, 2), (3, Fraction(-1, 2))):
        base = catalog.tw2(l1, l2, family=2)
        ext, _ = standard_extensions(base.A, base.B)[0]
        reps.append(tensor_product(ext, ext))
    tw4 = catalog.tw4([1, 2, 3, Fraction(2, 3)], 2)
    g = CMatrix.build(4, 1, lambda i, j: 1 + i * j + (i == j))
    gi = g.inverse()
    reps.append(LBRep(target=tw4.target, A=g @ tw4.A @ gi, B=g @ tw4.B @ gi))
    reps.append(catalog.counterexample6())
    return reps


def _answers(rep):
    gens = rep.present()
    d, n = rep.dim, rep.conductor
    words = [CMatrix.identity(d, n), *gens, *(x @ y for x in gens for y in gens)]
    out = {
        "algdim": algebra_dimension(gens),
        "rank": matrix_rank([w.flatten() for w in words]),
        "cyclic": [g.is_cyclic() for g in gens],
    }
    if rep.A is not None and d in (4, 5):
        try:
            out["uniqueness"] = extend.uniqueness_linearized(rep.A, rep.B).rank
        except LoopBraidError as exc:
            out["uniqueness"] = str(exc)
    return out


def test_fast_paths_match_the_exact_fallback(monkeypatch):
    fast = [_answers(rep) for rep in _inputs()]
    monkeypatch.setattr(modular, "reduce_rows", lambda rows, conductor: None)
    # fresh matrices: a CMatrix keeps its image mod p and its is_cyclic
    reps = _inputs()
    exact = [_answers(rep) for rep in reps]
    assert fast == exact
    # the pool holds both verdicts of each question
    assert {a["algdim"] == r.dim**2 for a, r in zip(exact, reps)} == {True, False}
    assert {c for a in exact for c in a["cyclic"]} == {True, False}
    assert any(a.get("uniqueness") == 9 for a in exact)


def test_full_rank_mod_p_answers_without_exact_elimination(monkeypatch):
    def no_exact(*args, **kwargs):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(linalg, "Echelon", no_exact)
    rep = catalog.counterexample6()
    assert algebra_dimension([rep.A, rep.B]) == 36
    assert matrix_rank([rep.A.flatten(), rep.B.flatten()]) == 2
    assert rep.B.is_cyclic()


def test_denominator_divisible_by_p_takes_the_exact_path():
    p = modular.ring_map(12)[0]
    tiny = CycNum.from_rational(Fraction(1, p), 12)
    one = CycNum.one(12)
    assert modular.reduce_rows([[tiny]], 12) is None
    assert matrix_rank([[tiny, one], [one, p * one]]) == 1
    assert matrix_rank([[tiny, 0 * one], [0 * one, one]]) == 2
    m = CMatrix.diagonal([tiny, one], 12)
    assert algebra_dimension([m]) == 2
    assert m.is_cyclic()


def test_rank_lost_mod_p_takes_the_exact_path():
    # p = 0 and 1 + p = 1 in F_p: every answer mod p falls short
    p = modular.ring_map(1)[0]
    assert matrix_rank(CMatrix.diagonal([p, 1], 1).rows) == 2
    m = CMatrix.diagonal([1, 1 + p], 1)
    assert algebra_dimension([m]) == 2
    assert m.is_cyclic()


def test_is_cyclic_examples():
    assert not CMatrix.diagonal([2, 2, 2], 1).is_cyclic()
    assert not CMatrix.diagonal([1, 1, 2], 1).is_cyclic()
    assert CMatrix.diagonal([1, 2, 3], 1).is_cyclic()
    # the companion matrix of x^3 - 2x + 5
    assert CMatrix([[0, 0, -5], [1, 0, 2], [0, 1, 0]], 1).is_cyclic()
    w = make_root_of_unity(12, 4)
    assert CMatrix.diagonal([w, w * w, w * w], 12).is_cyclic() is False


def _words(gens, length: int) -> list:
    """Every word in gens of length at most length, flattened."""
    frontier = [CMatrix.identity(gens[0].dim, gens[0].conductor)]
    words = list(frontier)
    for _ in range(length):
        frontier = [g @ w for w in frontier for g in gens]
        words += frontier
    return [w.flatten() for w in words]


def _short_questions():
    """Rank questions that fall short mod p, so that the replay runs."""
    tw2 = catalog.tw2(3, Fraction(-1, 2), family=2)
    square = tensor_product(tw2, tw2)
    family1 = catalog.tw2(-make_root_of_unity(3, 1), 1, family=1)
    return {
        # rank 10 of 15 words, algebra dimension 10 of 16, uniqueness rank 5 of 9
        "square-rank": lambda: matrix_rank(_words(square.present(), 3)),
        "square-algdim": lambda: algebra_dimension(square.present()),
        "square-uniqueness": lambda: extend.uniqueness_linearized(square.A, square.B),
        # rank and algebra dimension 3 of 4
        "family1-rank": lambda: matrix_rank(_words(family1.present(), 3)),
        "family1-algdim": lambda: algebra_dimension(family1.present()),
    }


# On family 1 one more independent row mod p reaches full rank, which is
# the proof the fast path rests on, so only the other lie is told there.
LIES = [
    (name, lie)
    for name in _short_questions()
    for lie in ("independent", "dependent")
    if not (name.startswith("family1") and lie == "dependent")
]


def _verdicts_mod_p(monkeypatch, flip: int | None = None) -> list[bool]:
    """Record the verdicts of `modular.EchelonModP.insert` from here on;
    the one at position flip is reported as its opposite."""
    verdicts, insert = [], modular.EchelonModP.insert

    def lying(self, row):
        verdicts.append(insert(self, row))
        return verdicts[-1] != (len(verdicts) - 1 == flip)

    monkeypatch.setattr(modular.EchelonModP, "insert", lying)
    return verdicts


@pytest.mark.parametrize("name, lie", LIES)
def test_lying_verdicts_mod_p_end_in_the_exact_answer(name, lie, monkeypatch):
    """A verdict mod p that lies about one row: the last independent row
    reported dependent, or the first dependent row reported independent.
    The replay either proves the exact answer or gives way to the plain
    exact pass, so the answer is the one exact elimination gives."""
    # each run asks fresh matrices, which have no image mod p kept yet
    def question():
        return _short_questions()[name]()

    with monkeypatch.context() as m:
        m.setattr(modular, "reduce_rows", lambda rows, conductor: None)
        want = question()
    with monkeypatch.context() as m:
        honest = _verdicts_mod_p(m)
        assert question() == want
    first_dependent = honest.index(False)  # the question falls short mod p
    if lie == "dependent":
        flip = first_dependent
    else:
        flip = len(honest) - 1 - honest[::-1].index(True)
        # on the squares the lie comes after a row set aside rightly, so
        # the confirmation must check every set-aside row to catch it
        assert name.startswith("family1") or first_dependent < flip
    _verdicts_mod_p(monkeypatch, flip)
    assert question() == want
