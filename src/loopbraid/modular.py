"""The ring map Z[zeta_N][1/D] -> F_p behind one-sided rank certificates.

For a prime p = 1 (mod N), Phi_N splits into linear factors mod p, so
zeta_N -> r, for a root r of Phi_N in F_p, extends to a ring map from
Z[zeta_N][1/D] onto F_p whenever p does not divide D.  A ring map can only
lose linear independence: vectors independent mod p have a maximal minor
that is nonzero mod p, so the same minor is nonzero in Q(zeta_N) and the
vectors are independent there.  Full rank mod p therefore proves full
rank (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5).  Anything
less proves nothing by itself: the caller replays its exact pass on the
verdicts of `EchelonModP.insert`, eliminating only the rows found
independent mod p, which are independent exactly, and confirms the rows
found dependent against their span in one exact product; when one is not
confirmed, the whole exact pass runs.  For the two yes/no closure
questions (irreducibility and cyclicity) the caller first tries an exact
witness that the closure falls short, an invariant subspace spun from an
eigenvector or a repeated eigenspace of a triangular matrix; it can only
prove a shortfall, and when none is found the replay runs.  This module
has one caller, `linalg._mod_p_first`, the route of every rank-type
question: `linalg.matrix_rank`, the span closure of
`linalg.algebra_dimension` (behind `is_irreducible` and
`CMatrix.is_cyclic`) and `extend.uniqueness_linearized`, whose whole
system is built from the images of A and B.

Residues are plain Python ints: p > 2^31, so a product of two residues
does not fit a machine word.  A row of `EchelonModP` is one packed
integer, one unsigned slot per entry, so a row operation is one big-integer
multiply-add: entries below width p^2 go in as they are (a uniqueness row
is a sum of two residues), and after at most width row operations, each
adding below p^2, a slot stays below 2 width p^2.  The slot is that many
bits rounded up to whole bytes, for any width: for p near 2^31, 64 bits
at width 1, 72 bits at widths 2 to 511 (the 81 of a d = 9 span closure
among them) and 80 bits from there to 131071.  A row is reduced
mod p once, after all its row operations, for its pivot search.  A span
closure's matrices live in the same packed form (`_PackedProducts`), so a
product mod p is d multiply-adds per column and enters the echelon as it
is.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Sequence

from .cyclotomic import CycNum, euler_phi, prime_factors

# Miller-Rabin with these bases is exact for every n < 3.3 * 10^24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def ring_map(conductor: int) -> tuple[int, int]:
    """(p, r): the smallest prime p = 1 (mod N) above 2^31 and an element r
    of order exactly N in F_p, hence a root of Phi_N mod p."""
    n = conductor
    p = (2**31 // n + 1) * n + 1
    while not is_prime(p):
        p += n
    qs = prime_factors(n)
    g = 2
    while True:
        r = pow(g, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in qs):
            return p, r
        g += 1


@lru_cache(maxsize=None)
def _basis_images(conductor: int) -> tuple[int, ...]:
    # r^j mod p for the power basis 1, zeta, ..., zeta^(phi(N)-1)
    p, r = ring_map(conductor)
    return tuple(pow(r, j, p) for j in range(euler_phi(conductor)))


def reduce_rows(rows: Sequence[Sequence[CycNum]], conductor: int) -> list[list[int]] | None:
    """The image of every entry in F_p, p = ring_map(conductor)[0].

    None when p divides a denominator or an entry lies in another field;
    the caller then answers exactly.
    """
    p = ring_map(conductor)[0]
    images = _basis_images(conductor)
    out = []
    for row in rows:
        img = []
        for x in row:
            if x.conductor != conductor or x._den % p == 0:
                return None
            v = sum(map(mul, x._num, images))
            if x._den != 1:
                v *= pow(x._den, -1, p)
            img.append(v % p)
        out.append(img)
    return out


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """a @ b over F_p."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in a]


class EchelonModP:
    """Incremental row-echelon basis over F_p, each row one packed integer.

    A row of `width` entries is an integer of `width` unsigned slots of
    `slot` bits, entry j in slot j (`pack`).  A stored row, scaled to pivot
    1, vanishes before its pivot and at every earlier pivot, so one pass in
    insertion order reduces a new row; it is kept negated, each entry as
    (p - b_j) mod p, so that the row operation v - f b is the one
    multiply-add v + f (p - b), which keeps every slot non-negative and
    never carries into the next.  Only f is read from v (one slot, taken
    mod p); the row is unpacked once, after its row operations, for the
    pivot search over the columns that hold no pivot yet.

    An inserted row may hold entries below width * p^2 (a uniqueness row
    is a sum of two residues, a span closure's product a sum of d products
    of residues); each of at most width row operations adds below p^2, so
    every slot stays below 2 * width * p^2, which `slot` bits hold.
    """

    def __init__(self, p: int, width: int):
        self.p, self.width = p, width
        self.nbytes = -(-(2 * width * p * p).bit_length() // 8)
        self.slot = 8 * self.nbytes
        self.mask = (1 << self.slot) - 1
        self._shifts = [j * self.slot for j in range(width)]
        self.rows: list[tuple[int, int]] = []  # (pivot, negated reduced row)
        self._free = list(range(width))  # the columns with no pivot, in order

    def pack(self, row: Sequence[int]) -> int:
        """The packed integer of width non-negative entries."""
        n = self.nbytes
        return int.from_bytes(b"".join(x.to_bytes(n, "little") for x in row), "little")

    def unpack(self, v: int) -> list[int]:
        """The width slots of a packed row, as they are (not reduced mod p)."""
        mask = self.mask
        return [v >> s & mask for s in self._shifts]

    def insert(self, v: int) -> bool:
        """Reduce the packed row v and keep it; False when it is dependent."""
        p, mask, shifts = self.p, self.mask, self._shifts
        for piv, neg in self.rows:
            f = (v >> shifts[piv] & mask) % p
            if f:
                v += f * neg
        free = self._free
        tail = [(v >> shifts[j] & mask) % p for j in free]
        lead = next((i for i, a in enumerate(tail) if a), None)
        if lead is None:
            return False
        scale = p - pow(tail[lead], -1, p)  # -1 / pivot entry
        neg = 0
        for j, a in zip(free[lead:], tail[lead:]):
            if a:
                neg |= a * scale % p << shifts[j]
        self.rows.append((free.pop(lead), neg))
        return True


class _PackedProducts:
    """d x d matrices over F_p in the packed form of one `EchelonModP` of
    width d^2, and their products, for a span closure.

    A matrix is the packed row of its transpose flattened: entry (i, k) in
    slot k d + i, so that slot block k is column k.  Column j of g m is
    sum_k m[k][j] (column k of g): d multiply-adds on g's packed columns,
    each slot below d p^2, so the product enters the echelon as it is.
    Every matrix enters in this one column order, a fixed permutation of
    the entries, which changes no verdict of the echelon.  An operand is
    read once however many products it enters: a left one (a generator)
    as its d packed columns, a right one as its residues; the memo holds
    each operand, so no id is reused while it lives.
    """

    def __init__(self, ech: EchelonModP):
        self.ech = ech
        self.d = math.isqrt(ech.width)
        self.block = self.d * ech.slot
        self._cols: dict[int, tuple[int, list[int]]] = {}
        self._entries: dict[int, tuple[int, list[int]]] = {}

    def flat(self, rows: Sequence[Sequence[int]]) -> int:
        """The packed form of a matrix given as rows of residues."""
        return self.ech.pack([x for col in zip(*rows) for x in col])

    def __call__(self, g: int, m: int) -> int:
        """g @ m, both in packed form; g's entries must be residues."""
        d, block = self.d, self.block
        hit = self._cols.get(id(g))
        if hit is None:
            mask = (1 << block) - 1
            hit = self._cols[id(g)] = (g, [g >> k * block & mask for k in range(d)])
        cols = hit[1]
        hit = self._entries.get(id(m))
        if hit is None:
            p = self.ech.p
            hit = self._entries[id(m)] = (m, [a % p for a in self.ech.unpack(m)])
        entries = hit[1]
        out = 0
        for j in range(d):
            out |= sum(map(mul, entries[j * d : j * d + d], cols)) << j * block
        return out
