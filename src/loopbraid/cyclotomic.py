"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(N)-1),
reduced modulo the N-th cyclotomic polynomial Phi_N.  Internally a value is
an integer coefficient vector over a single positive denominator, kept in
lowest terms, so equality is plain coefficient equality and there is
exactly one representation per field element.

Conductor mixing is always explicit: binary operations on elements of
different conductors raise ConductorMismatch; use promote() first, or
common_field(), the one rule by which mixed inputs meet in a field.  Plain
ints and Fractions coerce into any conductor (Q embeds everywhere).
Equality is that of field elements: across conductors the two sides are
compared in the lcm field, and the hash agrees with it (and with the hash
of a rational value).
"""

from __future__ import annotations

import cmath
import math
import operator
import struct
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Iterable, Sequence

from .errors import ConductorMismatch, DivisionByZero, FieldTooLarge, NotASubfield

#: Rational scalars are stdlib Fractions (arbitrary precision, always reduced).
Rational = Fraction

# The largest Phi_N(2^K), in bits, that a packed product reduces by one
# big-integer remainder.  CPython divides in quadratic time, so above it
# unpacking all 2 phi - 1 slots and folding the top phi - 1 back is faster:
# on random 4 x 4 products the two break even near 1700 bits at N = 12 and
# 2400 bits at N = 60.
_REMAINDER_BITS = 2048

# The largest N * phi(N), the entries of a field's power table, that
# `_Field` builds.  On a 2-vCPU Xeon VM, N = 4096 (2^23 entries) builds in
# 0.9 s; N = 7919 (2^26) takes 10.5 s and 1.1 GB.
_FIELD_ENTRIES = 2**24

# struct's signed little-endian words by bit width, ascending: slots this
# wide are read with one struct unpack.
_WORDS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _divisors(n: int) -> list[int]:
    divs = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            divs.append(d)
            if d != n // d:
                divs.append(n // d)
    return sorted(divs)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    # every field and scalar constructor asks for phi(n) first: n > 2^24
    # gives n * phi(n) > 2^24, so n is refused before trial division, which
    # runs to sqrt(n)
    if n > _FIELD_ENTRIES:
        raise FieldTooLarge(
            f"conductor {n} is too large: its tables would hold more than 2^24 entries"
        )
    qs = prime_factors(n)
    return n // math.prod(qs) * math.prod(q - 1 for q in qs)


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


def _mobius(n: int) -> int:
    qs = prime_factors(n)
    return (-1) ** len(qs) if math.prod(qs) == n else 0


def _poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # Exact division of integer polynomials, divisor monic.  Lowest degree first.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first (monic)."""
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in _divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class _Field:
    """Cached reduction tables for one conductor."""

    __slots__ = (
        "n", "phi", "modulus", "fold", "growth", "trace_weights", "trace_den",
        "tower",
    )

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        if n * self.phi > _FIELD_ENTRIES:
            raise FieldTooLarge(
                f"conductor {n} is too large: its tables would hold {n} x {self.phi} entries"
            )
        self.modulus = cyclotomic_polynomial(n)
        phi = self.phi
        # lower coefficients of Phi_n: x^phi = -(c_0 + c_1 x + ... )
        lower = self.modulus[:phi]
        # x^e reduced mod Phi_n for 0 <= e <= max(n-1, 2*phi-2)
        top = max(n - 1, 2 * phi - 2)
        rows: list[tuple[int, ...]] = []
        cur = [0] * phi
        cur[0] = 1
        rows.append(tuple(cur))
        for _ in range(top):
            lead = cur[phi - 1]
            nxt = [0] + cur[:phi - 1]
            if lead:
                for j in range(phi):
                    nxt[j] -= lead * lower[j]
            cur = nxt
            rows.append(tuple(cur))
        # the nonzero (j, c_j) of each row: a reduced power of zeta is sparse
        # (at N = 60 it has 1 to 6 terms of 16)
        self.fold = tuple(tuple((j, c) for j, c in enumerate(r) if c) for r in rows)
        # g_N: folding a convolution of 2 phi - 1 slots, each at most s in
        # absolute value, leaves every coefficient at most g_N * s (2, 3 and 7
        # at N = 3, 12 and 60; 28 at N = 105, where Phi_N has a -2)
        spill = [0] * phi
        for r in self.fold[phi:2 * phi - 1]:
            for j, c in r:
                spill[j] += abs(c)
        self.growth = 1 + max(spill)
        # Tr(zeta^j) / phi(n) = mu(m) / phi(m) with m = n / gcd(j, n), over
        # the common denominator trace_den: the normalized trace of an
        # element does not depend on the field it is viewed in.
        orders = [n // math.gcd(j, n) for j in range(phi)]
        self.trace_den = math.lcm(*(euler_phi(m) for m in orders))
        self.trace_weights = tuple(
            _mobius(m) * (self.trace_den // euler_phi(m)) for m in orders
        )
        self.tower = _galois_tower(n)


def _galois_tower(n: int) -> tuple[tuple[int, ...], ...]:
    """A chain 1 = H_0 < H_1 < ... < H_k = (Z/n)^* of subgroups, each of
    prime index p in the next: step i is (t, t^2, ..., t^(p-1)) mod n for
    a t of order p modulo H_i, so H_(i+1) is the union of the t^j H_i.

    t is the least unit outside H_i, raised to m / p where m is its order
    modulo H_i and p the least prime dividing m.  The indices multiply to
    phi(n): at n = 60 the chain has four steps of index 2.
    """
    units = {a % n for a in range(1, n + 1) if math.gcd(a, n) == 1}
    sub, steps = {1 % n}, []
    while len(sub) < len(units):
        t = min(units - sub)
        m, power = 1, t
        while power not in sub:
            m, power = m + 1, power * t % n
        p = prime_factors(m)[0]
        t = pow(t, m // p, n)
        steps.append(tuple(pow(t, j, n) for j in range(1, p)))
        sub = {h * pow(t, j, n) % n for h in sub for j in range(p)}
    return tuple(steps)


@lru_cache(maxsize=None)
def _field(n: int) -> _Field:
    return _Field(n)


def _power_map(num: Sequence[int], fld: _Field, step: int, shift: int = 0) -> list[int]:
    # The image of sum c_j zeta^j under zeta^j -> zeta_M^(j*step + shift),
    # M = fld.n: with no shift a Galois automorphism when M is the
    # conductor, else an embedding; with step 1, the product by zeta^shift,
    # a rotation of the coefficients.
    out = [0] * fld.phi
    n, fold = fld.n, fld.fold
    for j, c in enumerate(num):
        if c:
            for i, r in fold[(j * step + shift) % n]:
                out[i] += c * r
    return out


def _mul_num(a: Sequence[int], b: Sequence[int], fld: _Field) -> list[int]:
    conv = [0] * (2 * fld.phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    return _reduce(conv, fld)


def _reduce(conv: list[int], fld: _Field) -> list[int]:
    # Fold a raw convolution (length <= 2*phi-1) back onto the power basis.
    phi, fold = fld.phi, fld.fold
    out = list(conv[:phi]) + [0] * (phi - min(phi, len(conv)))
    for e in range(phi, len(conv)):
        c = conv[e]
        if c:
            for j, r in fold[e]:
                out[j] += c * r
    return out


def _slot_bits(bound: int, slots: int) -> int:
    """A slot width K in bits with 2^(K-1) > bound: the narrowest machine
    word that holds it, if that many slots of it stay within
    `_REMAINDER_BITS`, else whole bytes."""
    width = bound.bit_length() + 1  # + a sign bit
    words = (w for w in _WORDS if width <= w and slots * w <= _REMAINDER_BITS)
    return next(words, 8 * -(-width // 8))


@lru_cache(maxsize=None)
def _slot_reader(k: int, count: int):
    """The function taking v = sum s_j 2^(k j), every |s_j| < 2^(k-1), to
    its count slots s_j.

    With bias = 2^(k-1) in every slot, slot j of v + bias holds
    s_j + 2^(k-1) >= 0, and xor with bias flips each slot's top bit, which
    leaves s_j in k-bit two's complement.  Machine-word slots are then read
    by one struct unpack, wider ones one int.from_bytes each.
    """
    bias = (1 << (k - 1)) * (((1 << (k * count)) - 1) // ((1 << k) - 1))
    size, kb = k // 8 * count, k // 8
    if k in _WORDS:
        unpack = struct.Struct(f"<{count}{_WORDS[k]}").unpack
        return lambda v: unpack(((v + bias) ^ bias).to_bytes(size, "little"))

    def read(v):
        raw = ((v + bias) ^ bias).to_bytes(size, "little")
        return [
            int.from_bytes(raw[i : i + kb], "little", signed=True)
            for i in range(0, size, kb)
        ]

    return read


@lru_cache(maxsize=None)
def _packed_modulus(n: int, k: int) -> tuple[int, int]:
    """Phi_n(2^k) and its half.

    A reduced product r with every |r_j| < 2^(k-1) has |r(2^k)| at most
    (2^(k-1) - 1)(2^(k phi) - 1)/(2^k - 1), which must lie below half of
    Phi_n(2^k) for the symmetric residue to be r(2^k) itself.  It does at
    every n <= 210 for every k the remainder route can take; the check
    keeps it so.
    """
    fld = _field(n)
    m = sum(c << (k * j) for j, c in enumerate(fld.modulus))
    if not 2 * ((1 << (k - 1)) - 1) * (((1 << (k * fld.phi)) - 1) // ((1 << k) - 1)) < m:
        raise ArithmeticError(f"{k}-bit slots overflow Phi_{n}(2^{k})")
    return m, m // 2


class _Side:
    """One operand of `packed_product`, its rows or its columns, prepared
    once for every product it enters.

    Per vector it holds the common denominator and each entry's scale to
    it; over all vectors, the largest scaled numerator; and the packed
    integers of each slot width asked for so far (see `pack`).  A
    `CMatrix` keeps its rows and its columns prepared, which is safe
    because it is immutable, and so does one exact pass of
    `linalg._mod_p_first` for the matrices it multiplies, as lists of rows
    or flat; any other plain list of vectors is prepared per call.
    """

    __slots__ = ("conductor", "length", "vectors", "dens", "scales", "top", "packed")

    def __init__(self, vectors: Sequence[Sequence["CycNum"]], n: int):
        dens, scales, top = [], [], 0
        for vec in vectors:
            den = math.lcm(*(x._den for x in vec))
            line = []
            for x in vec:
                if x.conductor != n:
                    raise ConductorMismatch("matrix entries must share a conductor")
                s = den // x._den
                top = max(top, max(map(abs, x._num)) * s)
                line.append(s)
            dens.append(den)
            scales.append(line)
        self.conductor, self.vectors = n, vectors
        self.length = len(vectors[0]) if vectors else 0  # terms in each sum
        self.dens, self.scales, self.top, self.packed = dens, scales, top, {}

    def pack(self, k: int) -> list[list[int]]:
        """Per vector, each entry's scaled numerators c_j packed into the
        one integer sum c_j 2^(k j)."""
        packed = self.packed.get(k)
        if packed is None:
            packed = []
            for vec, scales in zip(self.vectors, self.scales):
                line = []
                for x, s in zip(vec, scales):
                    p = 0
                    for c in reversed(x._num):
                        p = (p << k) + c
                    line.append(p * s)
                packed.append(line)
            # stored only when whole: a concurrent caller either packs its
            # own copy or reads every row
            self.packed[k] = packed
        return packed


def _sides(
    rows: Sequence[Sequence["CycNum"]] | _Side, cols: Sequence[Sequence["CycNum"]] | _Side
) -> tuple[_Side, _Side]:
    """rows and cols as `_Side`s of one conductor, a plain list of vectors
    prepared here."""
    if not isinstance(rows, _Side):
        rows = _Side(rows, rows[0][0].conductor)
    if not isinstance(cols, _Side):
        cols = _Side(cols, rows.conductor)
    elif cols.conductor != rows.conductor:
        raise ConductorMismatch("matrix entries must share a conductor")
    return rows, cols


def _route(fld: _Field, bound: int) -> tuple[int, int, int, object]:
    """(K, modulus, mid, read) for packed values in the field fld whose
    convolution slots are at most bound: a sum of products, length * phi *
    max|a| * max|b|, or a difference of two scaled sums (`packed_equal`).
    The one slot-width and reduction setup.

    On the remainder route modulus is Phi_n(2^K) and mid its half, and
    read takes the symmetric residue r(2^K) of the reduced value r to its
    phi coefficients.  On the fold route modulus is 0 and read takes the
    raw C(2^K) to C's 2 phi - 1 slots, which the caller folds with
    `_reduce`.
    """
    phi = fld.phi
    k = _slot_bits(bound * fld.growth, phi)
    if phi * k <= _REMAINDER_BITS:
        modulus, mid = _packed_modulus(fld.n, k)
        return k, modulus, mid, _slot_reader(k, phi)
    k = _slot_bits(bound, 2 * phi - 1)
    return k, 0, 0, _slot_reader(k, 2 * phi - 1)


def _sums(rows: _Side, cols: _Side, k: int):
    """Row by row, the list of each entry's packed sum of the products
    row[t] * col[t] at slot width k, with its denominator d_i e_j."""
    pcols = list(zip(cols.pack(k), cols.dens))
    for pa, da in zip(rows.pack(k), rows.dens):
        line = []
        for pb, db in pcols:
            acc = 0
            for a, b in zip(pa, pb):
                if a and b:
                    acc += a * b
            line.append((acc, da * db))
        yield line


def packed_product(
    rows: Sequence[Sequence["CycNum"]] | _Side, cols: Sequence[Sequence["CycNum"]] | _Side
) -> list[list["CycNum"]]:
    """The matrix of every sum of products sum_k row[k] * col[k], by
    Kronecker substitution: the one exact sum-of-products kernel.

    Each row is scaled to one common denominator and each column to
    another, and the phi numerators c_j of an entry are packed into one
    integer sum c_j 2^(K j).  An output entry's convolution C is then the
    sum acc of d big-integer products (`_sums`), C(2^K), whose 2 phi - 1
    slots are each at most s = length * phi * max|a| * max|b| in absolute
    value.  The reduced product r = C mod Phi_N has r(2^K) = acc mod
    Phi_N(2^K), so one big-integer remainder, taken as the symmetric
    residue, leaves r(2^K), and only phi slots are read back.  Folding
    multiplies the bound by `_Field.growth`, g_N, so K is the bit length
    of s * g_N plus a sign bit, rounded up to 8, 16, 32 or 64 bits when
    one of them holds it and phi of them stay within `_REMAINDER_BITS`, so
    that one struct unpack reads every slot, else to whole bytes
    (`_route`).  rows and cols are each a `_Side`, which keeps that
    scaling and packing, or a list of vectors, prepared here.
    `_packed_modulus` checks that the symmetric residue is exact at (N, K).
    Division is quadratic in CPython, so when Phi_N(2^K) has more than
    `_REMAINDER_BITS` bits the entry instead reads all 2 phi - 1 slots, K
    taken from s alone, and `_reduce` folds them.  See Harvey, "Faster
    polynomial multiplication via multipoint Kronecker substitution",
    J. Symb. Comp. 2009.
    """
    rows, cols = _sides(rows, cols)
    n = rows.conductor
    fld = _field(n)
    k, modulus, mid, read = _route(fld, rows.length * fld.phi * rows.top * cols.top)
    zero = CycNum.zero(n)
    out = []
    for sums in _sums(rows, cols, k):
        line = []
        for acc, den in sums:
            if not acc:
                line.append(zero)
                continue
            if modulus:
                acc %= modulus
                if acc > mid:
                    acc -= modulus
                num = read(acc)
            else:
                num = _reduce(read(acc), fld)
            line.append(_new(n, num, den))
        out.append(line)
    return out


def packed_equal(
    rows: Sequence[Sequence["CycNum"]] | _Side,
    cols: Sequence[Sequence["CycNum"]] | _Side,
    other_rows: Sequence[Sequence["CycNum"]] | _Side,
    other_cols: Sequence[Sequence["CycNum"]] | _Side,
) -> bool:
    """Whether packed_product(rows, cols) == packed_product(other_rows,
    other_cols), decided on the packed sums of `_sums` and forming no
    CycNum.

    Entry (i, j) of each product is C / D: C the packed convolution and
    D = d_i e_j, the row's and the column's common denominators.  So
    C / D = C' / D' iff diff = C D' - C' D reduces to zero mod Phi_N.  K
    is `_route`'s for the bound of diff, phi (l t_r t_c max D' +
    l' t_r' t_c' max D): l the sum's length, t_r and t_c the rows' and the
    columns' largest scaled numerator, max D the largest row denominator
    times the largest column denominator.  On the remainder route diff
    reduces to zero iff diff % Phi_N(2^K) is 0, since `_packed_modulus`
    makes the residue faithful at K; on the fold route iff `_reduce` of
    its slots is.
    """
    rows, cols = _sides(rows, cols)
    other_rows, other_cols = _sides(other_rows, other_cols)
    n = rows.conductor
    if other_rows.conductor != n:
        raise ConductorMismatch("matrix entries must share a conductor")
    if (len(rows.vectors), len(cols.vectors)) != (len(other_rows.vectors), len(other_cols.vectors)):
        return False
    fld = _field(n)
    top_den, other_top_den = (
        max(r.dens, default=1) * max(c.dens, default=1)
        for r, c in ((rows, cols), (other_rows, other_cols))
    )
    bound = fld.phi * (
        rows.length * rows.top * cols.top * other_top_den
        + other_rows.length * other_rows.top * other_cols.top * top_den
    )
    k, modulus, _, read = _route(fld, bound)
    for sums, other_sums in zip(_sums(rows, cols, k), _sums(other_rows, other_cols, k)):
        for (acc, den), (other_acc, other_den) in zip(sums, other_sums):
            diff = acc * other_den - other_acc * den
            if diff and (diff % modulus if modulus else any(_reduce(read(diff), fld))):
                return False
    return True


def _lift(value, n: int) -> "CycNum":
    """value as an element of Q(zeta_n): the one rule by which a value
    enters a field.  A CycNum of conductor n is taken as it is and an int
    or a Fraction is lifted (`from_rational`); a CycNum of another
    conductor raises ConductorMismatch, since mixing conductors is always
    explicit, and any other value (a float, a string) TypeError."""
    if isinstance(value, CycNum):
        if value.conductor != n:
            raise ConductorMismatch(
                f"conductors {n} and {value.conductor} differ; promote() explicitly"
            )
        return value
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"a {type(value).__name__} does not enter Q(zeta_{n})")
    return CycNum.from_rational(value, n)


def _conductor_of(values: Iterable) -> int:
    """The conductor of the first CycNum among values, else 1."""
    return next((v.conductor for v in values if isinstance(v, CycNum)), 1)


def _binary(body):
    """body(x, y) as a CycNum operator: the one operand check.  A CycNum or
    a rational y enters the field of x through `_lift`; any other value
    gives NotImplemented, so Python tries the reflected operator."""

    @wraps(body)
    def op(x: "CycNum", y):
        if isinstance(y, (CycNum, int, Fraction)):
            return body(x, _lift(y, x.conductor))
        return NotImplemented

    return op


def _additive(op):
    """The one body of x + y (op is operator.add) and x - y (operator.sub)
    for x and y of one field."""

    def body(x: "CycNum", y: "CycNum") -> "CycNum":
        da, db = x._den, y._den
        if da == db:
            return _new(x.conductor, list(map(op, x._num, y._num)), da)
        l = math.lcm(da, db)
        fa, fb = l // da, l // db
        return _new(x.conductor, [op(fa * a, fb * b) for a, b in zip(x._num, y._num)], l)

    return body


def _power(x, e: int, mul):
    """x^e for e >= 1, mul(a, b) being the product: the one powering loop,
    behind `CycNum.__pow__` and `CMatrix.matpow`.  Square-and-multiply
    starts at the lowest set bit, so x^1 costs no product and x^3 two."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if not e:
            return result
        x = mul(x, x)


class CycNum:
    """An element of Q(zeta_N), immutable and hashable."""

    __slots__ = ("conductor", "_num", "_den")

    def __init__(self, conductor: int, num: Iterable[int], den: int = 1):
        numl = list(num)
        phi = euler_phi(conductor)  # not _field: its tables cost n * phi(n)
        if len(numl) != phi:
            raise ValueError(
                f"coefficient vector must have length phi({conductor}) = {phi}"
            )
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        _normalize_into(self, conductor, numl, den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycNum is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rational | int, conductor: int = 1) -> "CycNum":
        if type(value) is int and value in (0, 1):
            return _constant(conductor, value)  # the shared zero(N) and one(N)
        q = Fraction(value)
        num = [0] * euler_phi(conductor)
        num[0] = q.numerator
        return _new(conductor, num, q.denominator)

    @classmethod
    def from_coeffs(
        cls, conductor: int, coeffs: Sequence[Rational | int | str]
    ) -> "CycNum":
        """Coefficients on the power basis: ints, Fractions or strings.

        Every coefficient goes through Fraction once, so it is accepted or
        refused as there.  The wire reader (`serialize`) accepts and
        refuses the same, reading canonical strings by int().
        """
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs))
        return cls(conductor, [f.numerator * (den // f.denominator) for f in fracs], den)

    @classmethod
    def zero(cls, conductor: int = 1) -> "CycNum":
        return _constant(conductor, 0)

    @classmethod
    def one(cls, conductor: int = 1) -> "CycNum":
        return _constant(conductor, 1)

    # -- basic queries ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        return tuple(Fraction(v, self._den) for v in self._num)

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    @property
    def is_one(self) -> bool:
        return self._den == 1 and self._num[0] == 1 and all(
            v == 0 for v in self._num[1:]
        )

    @property
    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Rational | None:
        if not self.is_rational:
            return None
        return Fraction(self._num[0], self._den)

    def as_integer(self) -> int | None:
        """The rational integer value, or None (implements Tr(S) in Z tests)."""
        q = self.as_rational()
        if q is None or q.denominator != 1:
            return None
        return q.numerator

    @property
    def is_real(self) -> bool:
        return self == self.conj()

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other, self.conductor)
        elif not isinstance(other, CycNum):
            return NotImplemented
        elif other.conductor != self.conductor:
            (x, y), _ = common_field(self, other)
            return x == y
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        """The hash of the normalized trace Tr(x) / phi(N), a rational that
        is the same in every field holding x and is x itself for rational x."""
        fld = _field(self.conductor)
        trace = sum(c * w for c, w in zip(self._num, fld.trace_weights))
        return hash(Fraction(trace, self._den * fld.trace_den))

    def __repr__(self) -> str:
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = f"z{self.conductor}" + (f"^{j}" if j > 1 else "")
                terms.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"

    # -- arithmetic ------------------------------------------------------------

    __add__ = __radd__ = _binary(_additive(operator.add))
    __sub__ = _binary(_additive(operator.sub))
    __rsub__ = _binary(lambda x, y: y - x)

    def __neg__(self) -> "CycNum":
        return _new(self.conductor, [-v for v in self._num], self._den)

    @_binary
    def __mul__(self, other: "CycNum") -> "CycNum":
        num = _mul_num(self._num, other._num, _field(self.conductor))
        return _new(self.conductor, num, self._den * other._den)

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        """x^-1 = c / N(x), where the norm N(x), the product of the Galois
        conjugates sigma_a(x) (sigma_a: zeta -> zeta^a), is rational and
        c = N(x) / x is the product of the other conjugates.

        Both are built up the Galois tower of `_galois_tower`: while y is
        the product of the h(x) over h in H_i, a step of index p with
        generator t makes y the product of t^j(y) over j < p and multiplies
        c by the product of the t^j(y) over 0 < j < p.  At the top y is
        N(x), a constant.  That takes sum(p) - 1 schoolbook products over
        the steps, against phi(N) - 1 for the conjugates one at a time: 7
        and 15 at N = 60.  A rational x = c / den is its own norm's root and
        needs no tower: x^-1 = den / c on the first coefficient.
        """
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        n = self.conductor
        if self.is_rational:
            return _new(n, [self._den, *self._num[1:]], self._num[0])
        fld = _field(n)
        y, cof = self._num, None
        for powers in fld.tower:
            images = [_power_map(y, fld, a) for a in powers]
            rest = images[0]
            for img in images[1:]:
                rest = _mul_num(rest, img, fld)
            cof = rest if cof is None else _mul_num(cof, rest, fld)
            y = _mul_num(y, rest, fld)
        return _new(n, [c * self._den for c in cof], y[0])

    @_binary
    def __truediv__(self, other: "CycNum") -> "CycNum":
        return self * other.inv()

    @_binary
    def __rtruediv__(self, other: "CycNum") -> "CycNum":
        return other * self.inv()

    def __pow__(self, e: int) -> "CycNum":
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if e < 0:
            return self.inv() ** (-e)
        return _power(self, e, CycNum.__mul__) if e else CycNum.one(self.conductor)

    def conj(self) -> "CycNum":
        """Complex conjugation: the Galois map zeta -> zeta^(N-1)."""
        n = self.conductor
        return _new(n, _power_map(self._num, _field(n), n - 1), self._den)

    def promote(self, m: int) -> "CycNum":
        """The same field element viewed in Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if m % n != 0:
            raise NotASubfield(f"Q(zeta_{n}) is not a subfield of Q(zeta_{m})")
        if m == n:
            return self
        return _new(m, _power_map(self._num, _field(m), m // n), self._den)

    def to_complex(self) -> complex:
        """Evaluation at the canonical embedding zeta_N = exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc


_alloc = object.__new__
_set_conductor = CycNum.conductor.__set__
_set_num = CycNum._num.__set__
_set_den = CycNum._den.__set__


def _new(n: int, num: Sequence[int], den: int) -> CycNum:
    """The element num / den of Q(zeta_n), normalized into a fresh object.

    The caller guarantees len(num) == phi(n) and den != 0;
    `CycNum.__init__` checks both first.
    """
    return _normalize_into(_alloc(CycNum), n, num, den)


def _normalize_into(x: CycNum, n: int, num: Sequence[int], den: int) -> CycNum:
    """x set to num / den of Q(zeta_n), in lowest terms with a positive
    denominator: the one normalizing body, behind `_new` and
    `CycNum.__init__`.  The slots are set through their descriptors, past
    the immutability guard.
    """
    g = math.gcd(*num, den)  # > 0 as den != 0
    if den < 0:
        g = -g
    if g != 1:
        num = [v // g for v in num]
        den //= g
    _set_conductor(x, n)
    _set_num(x, tuple(num))
    _set_den(x, den)
    return x


@lru_cache(maxsize=None)
def _constant(n: int, value: int) -> CycNum:
    # zero(n) and one(n), shared: a CycNum is immutable
    num = [0] * euler_phi(n)
    num[0] = value
    return _new(n, num, 1)


def common_field(*values, extra: int = 1) -> tuple[list, int]:
    """The values viewed in one field Q(zeta_n), and n.

    n is the lcm of `extra` and the values' conductors.  A CycNum, CMatrix
    or LBRep (anything with `conductor` and `promote`) is promoted, None
    passes through (an empty block) and anything else enters through
    `_lift`.
    """
    n = math.lcm(extra, *(getattr(v, "conductor", 1) for v in values))
    return [
        v if v is None
        else v.promote(n) if hasattr(v, "promote")
        else _lift(v, n)
        for v in values
    ], n


def make_root_of_unity(n: int, k: int = 1) -> CycNum:
    """zeta_n^k as an exact element of Q(zeta_n)."""
    terms = dict(_field(n).fold[k % n])
    return _new(n, [terms.get(j, 0) for j in range(euler_phi(n))], 1)


def omega(conductor: int = 3) -> CycNum:
    """A primitive third root of unity, promoted into Q(zeta_conductor)."""
    if conductor % 3 != 0:
        raise NotASubfield(f"conductor {conductor} is not divisible by 3")
    return make_root_of_unity(conductor, conductor // 3)


def dot(xs: Sequence[CycNum], ys: Sequence[CycNum]) -> CycNum:
    """Exact sum of pairwise products: the one entry of a 1 x 1
    `packed_product`, the kernel behind every sum of products."""
    if not xs:
        raise ValueError("empty dot product")
    return packed_product([xs], [ys])[0][0]


# -- n-th roots inside the field ----------------------------------------------

def _int_nth_root(m: int, n: int) -> int | None:
    """Exact integer n-th root of m >= 0, or None."""
    if m < 0:
        return None
    if m in (0, 1):
        return m
    lo, hi = 1, 2
    while hi**n < m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == m else None


def rational_nth_root(q: Rational, n: int) -> Rational | None:
    """The rational n-th root of q, or None when none exists."""
    if n < 1:
        raise ValueError("root order must be >= 1")
    if q == 0:
        return Fraction(0)
    sign = 1
    if q < 0:
        if n % 2 == 0:
            return None
        sign, q = -1, -q
    a = _int_nth_root(q.numerator, n)
    b = _int_nth_root(q.denominator, n)
    if a is None or b is None:
        return None
    return Fraction(sign * a, b)


@lru_cache(maxsize=None)
def roots_of_unity(conductor: int) -> tuple[CycNum, ...]:
    """All roots of unity contained in Q(zeta_N): the group <+-zeta_N>,
    listed as gen^0, gen^1, ..., so roots[-j] is the inverse of roots[j].
    Built once per conductor; the tuple is shared between callers."""
    n = conductor
    if n % 2 == 0:
        gen = make_root_of_unity(n, 1)
        order = n
    else:
        gen = -make_root_of_unity(n, 1)
        order = 2 * n
    out = []
    u = CycNum.one(n)
    for _ in range(order):
        out.append(u)
        u = u * gen
    return tuple(out)


@lru_cache(maxsize=None)
def _root_index(conductor: int) -> dict[tuple[int, ...], int]:
    """j for each root of unity roots_of_unity(N)[j] whose first nonzero
    coefficient is positive, keyed by its coefficients.  A root is a unit
    of Z[zeta_N], so its coefficients (a reduced power of zeta, up to sign)
    have content 1, and u and -u share one key."""
    return {
        u._num: j
        for j, u in enumerate(roots_of_unity(conductor))
        if next(c for c in u._num if c) > 0
    }


def _root_of_unity_part(x: CycNum) -> tuple[Fraction, int] | None:
    """(q, j) with x = q * roots_of_unity(N)[j] and q rational, or None
    when x is no rational multiple of a root of unity: x's numerator over
    its content, signed to lead positive, is looked up."""
    if x.is_zero:
        return Fraction(0), 0
    g = math.gcd(*x._num)
    if next(c for c in x._num if c) < 0:
        g = -g
    j = _root_index(x.conductor).get(tuple(c // g for c in x._num))
    return None if j is None else (Fraction(g, x._den), j)


def nth_root_in_field(x: CycNum, n: int) -> list[CycNum]:
    """All y in Q(zeta_N) with y**n = x.

    First searches rational multiples of the roots of unity in the field
    (complete whenever any root has that shape); for n <= 3 falls back to
    exact factorization of T^n - x over the field.  An empty list means the
    caller must enlarge the conductor.
    """
    if n < 1:
        raise ValueError("root order must be >= 1")
    if n == 1:
        return [x]
    if x.is_zero:
        return [CycNum.zero(x.conductor)]
    found: dict[tuple, CycNum] = {}
    part = _root_of_unity_part(x)
    if part is not None:
        # x = q u_j, so u_i r is a root iff u_i^n = s u_j and r^n = s q for
        # a sign s; -1 is u_(order/2) in the cyclic group of roots
        q, j = part
        roots = roots_of_unity(x.conductor)
        order = len(roots)
        signs = {j: q, (j + order // 2) % order: -q}
        for i, u in enumerate(roots):
            qi = signs.get(n * i % order)
            r = None if qi is None else rational_nth_root(qi, n)
            if r is not None:
                y = u * r
                found.setdefault((y._num, y._den), y)
    if found:
        return sorted(found.values(), key=lambda y: (y._num, y._den))
    if n <= 3 and euler_phi(x.conductor) > 1:
        return _roots_by_factorization(x, n)
    return []


def _roots_by_factorization(x: CycNum, n: int) -> list[CycNum]:
    # Exact factorization of T^n - x over Q(zeta_N), via sympy's algebraic
    # field machinery (Trager).  Only reached for n <= 3.  sympy represents
    # Q(zeta_N) on the same power basis mod Phi_N, so coefficients map over
    # directly (its lists are highest degree first).
    import sympy

    N = x.conductor
    phi = euler_phi(N)
    zeta = sympy.exp(2 * sympy.pi * sympy.I * sympy.Rational(1, N))
    K = sympy.QQ.algebraic_field(zeta)
    T = sympy.Symbol("T")
    expr = sum(sympy.Rational(c) * zeta**j for j, c in enumerate(x.coeffs))
    poly = sympy.Poly(T**n - expr, T, domain=K)
    roots = []
    for factor, _mult in poly.factor_list()[1]:
        if factor.degree() != 1:
            continue
        a, b = factor.rep.to_list()
        anp = (-b) / a
        raw = list(reversed(anp.to_list()))
        coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in raw]
        coeffs += [Fraction(0)] * (phi - len(coeffs))
        roots.append(CycNum.from_coeffs(N, coeffs))
    return sorted(set(roots), key=lambda y: (y._num, y._den))
