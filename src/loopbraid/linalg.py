"""Exact dense linear algebra over a fixed cyclotomic field.

Everything here is exact.  All elimination (det, inverse, rank, kernel,
linear solves, the span of powers behind min_poly, algebra closure) runs
through one incremental echelon basis, `Echelon`, with first-nonzero
pivoting (no stability concerns over an exact field); char_poly is
Faddeev-LeVerrier.  Vectors are plain tuples of CycNum, and so are the
char and min polys: their coefficients, lowest degree first.

Every rank-type question (`matrix_rank`, `algebra_dimension` and through
it `CMatrix.is_cyclic`, `CMatrix.is_diagonalizable`, which asks whether
p'(M) is invertible for the min poly p, and
`extend.uniqueness_linearized`) takes one
route, `_mod_p_first`, the only code that touches `modular`: the question
is asked first of the images in F_p, where full rank proves full rank
here.  Anything less is replayed exactly on the verdicts F_p recorded:
only the rows found independent there are eliminated, and one packed
product confirms that the others lie in their span.  When it does not,
the question is answered once more from the start, so every result is exact.
A `CMatrix` is immutable and keeps what one command derives from it: its
products, its `is_cyclic` verdict and its image in F_p.
"""

from __future__ import annotations

import math
import operator
import weakref
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Sequence

from . import modular
from .cyclotomic import (
    CycNum, _conductor_of, _field, _lift, _mul_num, _new, _power, _Side, packed_product,
)
from .errors import (
    ConductorMismatch,
    DimMismatch,
    SingularMatrix,
)

Vector = tuple[CycNum, ...]


_UNSET = object()


class _Kept(weakref.ref):
    """A product in its left operand's memo, held beside a weak reference
    to the right operand: when the right operand dies, the entry leaves
    the memo if it is still this one.  The left operand is held weakly
    too, so no entry forms a reference cycle."""

    __slots__ = ("product", "left", "key")

    def __new__(cls, right, left, product):
        return super().__new__(cls, right, _Kept._drop)

    def __init__(self, right, left, product):
        super().__init__(right, _Kept._drop)
        self.product, self.left, self.key = product, weakref.ref(left), id(right)

    def _drop(self):
        left = self.left()
        if left is not None and left._products.get(self.key) is self:
            del left._products[self.key]


class CMatrix:
    """A square matrix over Q(zeta_N) with exact entries.

    The matrix is immutable, so what is derived from it is kept: its rows
    and its columns, each prepared for `packed_product` the first time they
    enter a product; the products it has formed as the left operand, keyed
    on the id of the right one (`a @ b is a @ b`), which the memo holds by
    a weak reference, so that a reused id is told apart, no reference
    cycle (a @ b beside b @ a) outlives the matrices, and the entry,
    product and all, leaves the memo when the right one dies; its
    `is_cyclic` verdict; and its image in F_p, which `_mod_p_first` forms
    once.
    """

    __slots__ = (
        "dim", "conductor", "rows", "_as_rows", "_as_cols", "_products", "_cyclic", "_image",
        "__weakref__",
    )

    def __init__(self, rows: Sequence[Sequence], conductor: int | None = None):
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise DimMismatch("matrix must be square and nonempty")
        if conductor is None:
            conductor = _conductor_of(e for r in rows for e in r)
        self_rows = tuple(tuple(_lift(e, conductor) for e in r) for r in rows)
        self._set_fields(d, conductor, self_rows)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CMatrix is immutable")

    @classmethod
    def _of(cls, rows: list[list[CycNum]], conductor: int) -> "CMatrix":
        """The matrix of d rows of d CycNum of this conductor, taken as they
        are: a product's entries need no lifting or checks."""
        m = object.__new__(cls)
        m._set_fields(len(rows), conductor, tuple(map(tuple, rows)))
        return m

    def _set_fields(self, dim: int, conductor: int, rows: tuple) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "dim", dim)
        setattr_(self, "conductor", conductor)
        setattr_(self, "rows", rows)
        setattr_(self, "_as_rows", None)
        setattr_(self, "_as_cols", None)
        setattr_(self, "_products", {})
        setattr_(self, "_cyclic", None)
        setattr_(self, "_image", _UNSET)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, dim: int, conductor: int = 1) -> "CMatrix":
        return cls.diagonal([1] * dim, conductor)

    @classmethod
    def zero(cls, dim: int, conductor: int = 1) -> "CMatrix":
        return cls.diagonal([0] * dim, conductor)

    @classmethod
    def diagonal(cls, entries: Sequence, conductor: int | None = None) -> "CMatrix":
        """Built through `CMatrix(...)`, which lifts the entries and refuses
        an empty matrix."""
        if conductor is None:
            conductor = _conductor_of(entries)
        z, d = CycNum.zero(conductor), len(entries)
        return cls([[e if i == j else z for j in range(d)] for i, e in enumerate(entries)], conductor)

    @classmethod
    def build(cls, dim: int, conductor: int, f: Callable[[int, int], object]) -> "CMatrix":
        return cls([[f(i, j) for j in range(dim)] for i in range(dim)], conductor)

    # -- structure -------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> CycNum:
        return self.rows[ij[0]][ij[1]]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[Vector]:
        return list(zip(*self.rows))

    def transpose(self) -> "CMatrix":
        return CMatrix._of(self.columns(), self.conductor)

    def flatten(self) -> Vector:
        """Row-major flattening into a d^2 vector."""
        return tuple(e for r in self.rows for e in r)

    def promote(self, m: int) -> "CMatrix":
        if m == self.conductor:
            return self
        return CMatrix([[e.promote(m) for e in r] for r in self.rows], m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CMatrix):
            return NotImplemented
        # entries compare (and hash) alike across conductors
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "\n ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows)
        return f"CMatrix({self.dim}, N={self.conductor},\n {body})"

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for r in self.rows for e in r)

    @property
    def is_identity(self) -> bool:
        return all(
            e.is_one if i == j else e.is_zero
            for i, r in enumerate(self.rows)
            for j, e in enumerate(r)
        )

    def is_scalar(self) -> CycNum | None:
        """The scalar c when self == c*I, else None."""
        c = self.rows[0][0]
        for i in range(self.dim):
            for j in range(self.dim):
                e = self.rows[i][j]
                if i == j:
                    if e != c:
                        return None
                elif not e.is_zero:
                    return None
        return c

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "CMatrix"):
        if self.dim != other.dim:
            raise DimMismatch(f"dims {self.dim} and {other.dim} differ")
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductors {self.conductor} and {other.conductor} differ"
            )

    def _entrywise(self, other: "CMatrix", op) -> "CMatrix":
        """The one body of + (op is operator.add) and - (operator.sub);
        NotImplemented for an operand that is not a matrix."""
        if not isinstance(other, CMatrix):
            return NotImplemented
        self._check(other)
        rows = [list(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)]
        return CMatrix._of(rows, self.conductor)

    def __add__(self, other: "CMatrix") -> "CMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "CMatrix":
        return CMatrix._of([[-e for e in r] for r in self.rows], self.conductor)

    def _rows_side(self) -> _Side:
        if self._as_rows is None:
            object.__setattr__(self, "_as_rows", _Side(self.rows, self.conductor))
        return self._as_rows

    def _cols_side(self) -> _Side:
        if self._as_cols is None:
            object.__setattr__(self, "_as_cols", _Side(self.columns(), self.conductor))
        return self._as_cols

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        hit = self._products.get(id(other))
        if hit is None or hit() is not other:
            if not isinstance(other, CMatrix):
                return NotImplemented
            self._check(other)
            product = CMatrix._of(
                packed_product(self._rows_side(), other._cols_side()), self.conductor
            )
            hit = self._products[id(other)] = _Kept(other, self, product)
        return hit.product

    def scalar_mul(self, c) -> "CMatrix":
        c = _lift(c, self.conductor)
        return CMatrix._of([[c * e for e in r] for r in self.rows], self.conductor)

    def __mul__(self, c) -> "CMatrix":
        return self.scalar_mul(c)

    __rmul__ = __mul__

    def apply(self, vec: Sequence[CycNum]) -> Vector:
        if len(vec) != self.dim:
            raise DimMismatch("vector length mismatch")
        return tuple(r[0] for r in packed_product(self.rows, [tuple(vec)]))

    def matpow(self, e: int) -> "CMatrix":
        """M^e by `cyclotomic._power`: M^1 costs no product and M^3 two."""
        if e < 0:
            return self.inverse().matpow(-e)
        if e == 0:
            return CMatrix.identity(self.dim, self.conductor)
        return _power(self, e, CMatrix.__matmul__)

    def kron(self, other: "CMatrix") -> "CMatrix":
        """Kronecker product, conductors must already agree."""
        if self.conductor != other.conductor:
            raise ConductorMismatch("promote to a common conductor before kron")
        d1, d2 = self.dim, other.dim
        return CMatrix.build(
            d1 * d2,
            self.conductor,
            lambda i, j: self.rows[i // d2][j // d2] * other.rows[i % d2][j % d2],
        )

    # -- exact decompositions ----------------------------------------------------

    def trace(self) -> CycNum:
        acc = CycNum.zero(self.conductor)
        for i in range(self.dim):
            acc = acc + self.rows[i][i]
        return acc

    def det(self) -> CycNum:
        ech = Echelon(self.dim, self.conductor)
        det = CycNum.one(self.conductor)
        for row in self.rows:
            pivot = ech.insert(row)[1]
            if pivot is None:
                return CycNum.zero(self.conductor)
            det = det * pivot
        # the residuals are triangular with their columns in pivot order
        piv = ech.pivots
        swaps = sum(p > q for i, p in enumerate(piv) for q in piv[i + 1 :])
        return -det if swaps % 2 else det

    def inverse(self) -> "CMatrix":
        """Reduce [M | I] to [I | M^-1]."""
        d = self.dim
        ech = Echelon(d, self.conductor)
        for row, unit in zip(self.rows, CMatrix.identity(d, self.conductor).rows):
            if ech.insert(row + unit)[1] is None:
                raise SingularMatrix("matrix is not invertible")
        return CMatrix([row[d:] for _, row in ech.rref()], self.conductor)

    def rank(self) -> int:
        return matrix_rank(self.rows)

    def kernel(self) -> list[Vector]:
        """Exact basis of the null space; empty iff invertible."""
        return Echelon(self.dim, self.conductor, self.rows).kernel()

    def char_poly(self) -> Vector:
        """Monic characteristic polynomial via Faddeev-LeVerrier, as its
        coefficients lowest degree first."""
        d = self.dim
        ident = CMatrix.identity(d, self.conductor)
        coeffs = [CycNum.one(self.conductor)]  # highest degree first
        m = CMatrix.zero(d, self.conductor)
        for k in range(1, d + 1):
            m = self @ (m + ident.scalar_mul(coeffs[-1]))
            coeffs.append(m.trace() * Fraction(-1, k))
        return tuple(reversed(coeffs))

    def min_poly(self) -> Vector:
        """Monic minimal polynomial, lowest degree first: the first power M^k
        that reduces to zero against I, M, ..., M^(k-1), with the combination
        riding along."""
        d, n = self.dim, self.conductor
        zero, one = CycNum.zero(n), CycNum.one(n)
        ech = Echelon(d * d, n)
        k, power = 0, CMatrix.identity(d, n)
        while True:  # Cayley-Hamilton: stops at k = d at the latest
            residual, pivot = ech.insert(
                [*power.flatten(), *[zero] * k, one, *[zero] * (d - k)]
            )
            if pivot is None:
                return tuple(residual[d * d : d * d + k + 1])
            k, power = k + 1, power @ self

    def is_cyclic(self) -> bool:
        """min poly == char poly: the powers of M span d dimensions."""
        if self._cyclic is None:
            object.__setattr__(self, "_cyclic", algebra_dimension([self]) == self.dim)
        return self._cyclic

    def is_diagonalizable(self) -> bool:
        """Diagonalizable over the algebraic closure (omega's rotation is, at
        N = 1, though not over Q): the minimal polynomial p is squarefree,
        that is p'(M) is invertible.  The eigenvalues of q(M) are the q(l)
        for the roots l of p, so q(M) is invertible iff q shares no root
        with p.  p' comes by Horner, its rank through `matrix_rank`."""
        p = self.min_poly()
        ident = CMatrix.identity(self.dim, self.conductor)
        acc = CMatrix.zero(self.dim, self.conductor)
        for k in range(len(p) - 1, 0, -1):
            acc = acc @ self + ident.scalar_mul(p[k] * k)
        return matrix_rank(acc.rows) == self.dim


def _block_diagonal(blocks: Sequence[Sequence[Sequence]], conductor: int) -> CMatrix:
    """diag(blocks) for square blocks given as lists of rows, lifted through
    `CMatrix(...)`; an empty block adds nothing."""
    d, at, rows = sum(map(len, blocks)), 0, []
    for blk in blocks:
        rows += ([0] * at + list(r) + [0] * (d - at - len(blk)) for r in blk)
        at += len(blk)
    return CMatrix(rows, conductor)


# -- the elimination kernel ------------------------------------------------------


def _eliminate(vec: list[CycNum], f: CycNum, row: Sequence[CycNum], start: int) -> None:
    """vec -= f * row in place, over the columns from start (row vanishes before).

    Each entry vec[j] - f * row[j] is formed on the integer numerators:
    one schoolbook product, one lcm and one normalizing `_new`.
    """
    if f.is_zero:
        return
    n, fnum, fden = f.conductor, f._num, f._den
    fld = _field(n)
    for j in range(start, len(vec)):
        b = row[j]
        if any(b._num):
            v = vec[j]
            if v.conductor != n or b.conductor != n:
                raise ConductorMismatch("eliminated entries must share a conductor")
            prod, pden = _mul_num(fnum, b._num, fld), fden * b._den
            vden = v._den
            den = math.lcm(vden, pden)
            sv, sp = den // vden, den // pden
            vec[j] = _new(n, [sv * x - sp * y for x, y in zip(v._num, prod)], den)


class Echelon:
    """Incremental row-echelon basis: the one elimination loop of this module.

    A row is reduced against the stored rows in insertion order; if one of
    its first `width` entries survives, the first such is its pivot and
    the row is stored scaled to pivot 1.  Columns past `width` hold no
    pivot and ride along: the I of [M | I], a right-hand side, or the
    combination of powers a residual stands for.  A stored row vanishes
    before its pivot and at every earlier pivot, so one pass reduces.
    """

    def __init__(self, width: int, conductor: int, rows: Iterable[Sequence[CycNum]] = ()):
        self.width, self.conductor = width, conductor
        self.rows: list[list[CycNum]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.insert(row)

    def insert(self, row: Sequence[CycNum]) -> tuple[list[CycNum], CycNum | None]:
        """Reduce row and keep it when independent: (residual, pivot entry).

        The pivot entry is None when the first `width` entries reduce to 0.
        """
        vec = list(row)
        for piv, basis_row in zip(self.pivots, self.rows):
            _eliminate(vec, vec[piv], basis_row, piv)
        piv = next((j for j in range(self.width) if not vec[j].is_zero), None)
        if piv is None:
            return vec, None
        pinv = vec[piv].inv()
        self.rows.append([e if e.is_zero else pinv * e for e in vec])
        self.pivots.append(piv)
        return vec, vec[piv]

    def rref(self) -> list[tuple[int, list[CycNum]]]:
        """Back-substitute in place; (pivot, row) pairs in pivot order.

        Rows below row i already vanish at its pivot, so it stays 1.
        """
        rows, pivots = self.rows, self.pivots
        for i in range(len(rows) - 2, -1, -1):
            for piv, lower in zip(pivots[i + 1 :], rows[i + 1 :]):
                _eliminate(rows[i], rows[i][piv], lower, piv)
        return sorted(zip(pivots, rows), key=lambda pr: pr[0])

    def kernel(self) -> list[Vector]:
        """Null space of the first `width` columns, one vector per free column."""
        reduced = self.rref()
        zero, one = CycNum.zero(self.conductor), CycNum.one(self.conductor)
        basis = []
        for j in sorted(set(range(self.width)) - set(self.pivots)):
            v = [zero] * self.width
            v[j] = one
            for pc, row in reduced:
                v[pc] = -row[j]
            basis.append(tuple(v))
        return basis


class _Ring(NamedTuple):
    """What a count needs of the ring it runs over, Q(zeta_N) or F_p.

    mul(x, y) multiplies matrices given as lists of rows, and row(values)
    is a vector as that ring's insert takes it.  A span closure keeps its
    matrices flat, each as one row insert takes: flat(rows) is a matrix
    given as rows, and flat_mul(g, m) the product of two flat matrices.
    """

    mul: Callable
    row: Callable
    flat: Callable
    flat_mul: Callable


def _exact_ring(conductor: int) -> _Ring:
    """The exact ring of one pass; a flat matrix is its rows joined.

    Each operand is scaled and packed once (`_Side`), as rows on the left
    and as columns on the right, however many products of the pass it
    enters: a generator, or a frontier element that every generator
    multiplies.  The memo holds each operand it prepared, so no id is
    reused while it lives; operands are never mutated.
    """
    sides: dict[tuple[int, bool], tuple[object, _Side]] = {}

    def side(m, left: bool, flat: bool) -> _Side:
        hit = sides.get((id(m), left))
        if hit is None:
            if not flat:
                vecs = m if left else list(zip(*m))
            else:
                d = math.isqrt(len(m))
                vecs = [m[i * d : i * d + d] if left else m[i::d] for i in range(d)]
            hit = sides[id(m), left] = (m, _Side(vecs, conductor))
        return hit[1]

    def flat_mul(g, m) -> list[CycNum]:
        return [x for row in packed_product(side(g, True, True), side(m, False, True)) for x in row]

    return _Ring(
        mul=lambda x, y: packed_product(side(x, True, False), side(y, False, False)),
        row=lambda values: values,
        flat=lambda rows: [x for row in rows for x in row],
        flat_mul=flat_mul,
    )


class _Disagree(Exception):
    """An exact row contradicts the verdict F_p recorded for it."""


def _in_span(ech: Echelon, rows: list) -> bool:
    """Whether every row lies in the span of ech, by one packed product.

    A vector v of that span is sum_i v[p_i] R_i over the reduced basis
    rows R_i, which hold 1 at their own pivot p_i and 0 at every other
    pivot; anything else is not in the span.  The combination matches v
    at every pivot by construction, so only the other columns are formed.
    """
    pivots = set(ech.pivots)
    free = [j for j in range(ech.width) if j not in pivots]
    if not rows or not free:
        return True
    reduced = ech.rref()
    if not reduced:
        return all(row[j].is_zero for row in rows for j in free)
    coeffs = [[row[piv] for piv, _ in reduced] for row in rows]
    combos = packed_product(coeffs, [[basis[j] for _, basis in reduced] for j in free])
    return all(got == [row[j] for j in free] for got, row in zip(combos, rows))


def _replay(mats, conductor: int, width: int, count, ring: _Ring, verdicts: list[bool]) -> bool:
    """Run count exactly on the verdicts F_p recorded; True when they hold.

    A row F_p found independent goes into one `Echelon`, and is independent
    here too (a minor nonzero mod p is nonzero in Q(zeta_N)).  A row F_p
    found dependent is set aside and reported dependent, so count takes
    the path it took mod p and forms only the products formed there.  The
    set-aside rows are then checked against the span in one product.
    """
    ech, aside = Echelon(width, conductor), []

    def insert(row) -> bool:
        verdict = verdicts[len(ech.rows) + len(aside)]
        if not verdict:
            aside.append(row)
        elif ech.insert(row)[1] is None:
            raise _Disagree
        return verdict

    try:
        count(mats, ring, insert)
    except _Disagree:
        return False
    return _in_span(ech, aside)


def _mod_p_first(mats, conductor: int, width: int, full: int, count) -> int:
    """The one route of every rank-type question: mod p first, then exact.

    mats are CMatrix or lists of rows.  count(mats, ring, insert) builds
    vectors of length width from the matrices mats (lists of rows) with
    the operations of ring (`_Ring`), feeds them to insert, and returns how
    many of them insert found independent.  It runs first on the images of
    mats in F_p (see `modular`), with one `modular.EchelonModP` that
    records each verdict: a ring map can only lose rank, so reaching full
    there proves full.  A CMatrix is reduced mod p once and keeps its
    image, so the questions of one command about one matrix share it.

    Anything less is replayed exactly on those verdicts (`_replay`): the
    rows found independent mod p enter one `Echelon`, the others are set
    aside, and one packed product checks that they lie in the span of the
    first.  Then F_p's count is exact, since the final span decides every
    count here.  For a fixed list of rows it is the rank.  For a span
    closure, the inserted words contain I and span some U, and every g W
    of an inserted word W was either inserted or set aside, so lies in U:
    U is closed under the generators and is the algebra.

    A set-aside row outside the span, an independent row with no exact
    pivot, or a matrix with no image (p divides a denominator) proves
    nothing, and count runs once more exactly, on mats with one fresh
    `Echelon`.  Every exact product of the call prepares each operand once
    (`_exact_ring`).  This is the only code in the package that touches
    `modular`.
    """

    def image(m):
        if not isinstance(m, CMatrix):
            return modular.reduce_rows(m, conductor)
        if m._image is _UNSET:
            object.__setattr__(m, "_image", modular.reduce_rows(m.rows, conductor))
        return m._image

    images = [image(m) for m in mats]
    mats = [m.rows if isinstance(m, CMatrix) else m for m in mats]
    ring = _exact_ring(conductor)
    if None not in images:
        p = modular.ring_map(conductor)[0]
        ech_p, verdicts = modular.EchelonModP(p, width), []

        def insert_mod_p(row) -> bool:
            verdicts.append(ech_p.insert(row))
            return verdicts[-1]

        products = modular._PackedProducts(ech_p)
        ring_p = _Ring(partial(modular.matmul, p=p), ech_p.pack, products.flat, products)
        rank = count(images, ring_p, insert_mod_p)
        if rank == full or _replay(mats, conductor, width, count, ring, verdicts):
            return rank
    ech = Echelon(width, conductor)
    return count(mats, ring, lambda row: ech.insert(row)[1] is not None)


def matrix_rank(rows: Iterable[Sequence[CycNum]]) -> int:
    """Exact rank; full rank mod p answers without exact elimination.

    The rows must share one length; rows of length 0 have rank 0.
    """
    rows = list(rows)
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise DimMismatch("rows of a rank must share one length")
    if not width:
        return 0
    return _mod_p_first(
        [rows], rows[0][0].conductor, width, min(len(rows), width),
        lambda mats, ring, insert: sum(insert(ring.row(r)) for r in mats[0]),
    )


def solve_linear(
    rows: Sequence[Sequence[CycNum]], rhs: Sequence[CycNum]
) -> tuple[Vector, list[Vector]] | None:
    """One exact solution of rows * x = rhs plus a kernel basis, or None.

    The system may be rectangular (rows of equal length, one rhs entry per
    row, else `DimMismatch`).  int and Fraction entries are lifted to the
    conductor of the first CycNum, of the rows and then of rhs (1 when
    there is none), as `CMatrix` lifts them.  None signals inconsistency.
    """
    if len(rhs) != len(rows) or any(len(r) != len(rows[0]) for r in rows):
        raise DimMismatch("solve_linear needs one rhs entry per row, rows of one length")
    if not rows:
        return tuple(), []
    ncols = len(rows[0])
    n = _conductor_of(e for r in (*rows, rhs) for e in r)
    ech = Echelon(ncols, n)
    for row, b in zip(rows, rhs):
        residual, pivot = ech.insert([_lift(e, n) for e in (*row, b)])
        if pivot is None and not residual[ncols].is_zero:
            return None  # 0 = nonzero
    sol = [CycNum.zero(ech.conductor)] * ncols
    for pc, row in ech.rref():
        sol[pc] = row[ncols]
    return tuple(sol), ech.kernel()


def is_proportional(x: CMatrix, y: CMatrix) -> bool:
    """True when the flattened pair has rank <= 1 (y = k*x or degenerate)."""
    return matrix_rank([x.flatten(), y.flatten()]) <= 1


def _span_closure(mats, ring: _Ring, insert, full: int) -> int:
    """Size of the span of all words in the generators mats[1:], the
    identity mats[0] being the empty word; matrices are lists of rows.

    Seed the span with the identity and the generators, and the frontier
    with the generators alone (g times the identity is g).  Then multiply
    each element that entered the span by every generator, until the span
    stabilizes or reaches full.  A round that continues has added at least
    one independent vector, so fewer than full rounds run and no cap is
    needed.  Matrices are kept flat (`_Ring`), and insert(v) adds the flat
    matrix v to the span and says whether it was independent.
    """
    ident, *gens = map(ring.flat, mats)
    size = int(insert(ident))
    frontier = [g for g in gens if insert(g)]
    size += len(frontier)
    while frontier and size < full:
        new_frontier = []
        for mat in frontier:
            for g in gens:
                prod = ring.flat_mul(g, mat)
                if insert(prod):
                    size += 1
                    if size == full:
                        return size
                    new_frontier.append(prod)
        frontier = new_frontier
    return size


@lru_cache(maxsize=None)
def _identity(dim: int, conductor: int) -> CMatrix:
    # the closure's empty word, shared so that its image mod p is formed
    # once per (d, N); it enters `_mod_p_first` only as rows, so its
    # product memo stays empty
    return CMatrix.identity(dim, conductor)


def algebra_dimension(gens: Sequence[CMatrix]) -> int:
    """Dimension of the unital matrix algebra generated by gens.

    The span closure of I and gens on flattened d^2 vectors, through
    `_mod_p_first`: reaching the cap mod p proves it (d^2 is Burnside's
    irreducibility; d for one generator is min poly == char poly).
    Otherwise the exact closure gives the dimension.
    """
    if not gens:
        raise ValueError("need at least one generator")
    d = gens[0].dim
    n = gens[0].conductor
    for g in gens[1:]:
        if g.dim != d:
            raise DimMismatch("generators must share a dimension")
        if g.conductor != n:
            raise ConductorMismatch("generators must share a conductor")
    # Cayley-Hamilton: the powers of one matrix span at most d dimensions
    full = d if len(gens) == 1 else d * d
    return _mod_p_first(
        [_identity(d, n), *gens], n, d * d, full, partial(_span_closure, full=full)
    )
