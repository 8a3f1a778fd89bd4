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
confirmed, the whole exact pass runs.  This module has one caller,
`linalg._mod_p_first`, the route of every rank-type question:
`linalg.matrix_rank`, the span closure of
`linalg.algebra_dimension` (behind `is_irreducible` and
`CMatrix.is_cyclic`) and `extend.uniqueness_linearized`, whose whole
system is built from the images of A and B.

Residues are plain Python ints: p > 2^31, so a product of two residues
does not fit a machine word.  `EchelonModP.insert` takes entries in
[0, 2p), so a uniqueness row (a sum of two residues) goes in as it is,
and reduces the row mod p once, after all its row operations: its entries
stay below 2p + k p^2 in absolute value after k of them, under 2^68 for
k <= 36.
"""

from __future__ import annotations

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
            v = sum(c * w for c, w in zip(x._num, images))
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
    """Incremental row-echelon basis over F_p.

    Stored rows are scaled to pivot 1 and vanish before their pivot and at
    every earlier pivot, so one pass in insertion order reduces a new row.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: list[tuple[int, list[int]]] = []

    def insert(self, row: Sequence[int]) -> bool:
        """Reduce row (entries in [0, 2p)) and keep it; False when dependent.

        Only each factor f is taken mod p during the row operations; the
        row itself is reduced once, before the pivot search.
        """
        p = self.p
        vec = list(row)
        for piv, basis_row in self.rows:
            f = vec[piv] % p
            if f:
                vec = [a - f * b for a, b in zip(vec, basis_row)]
        vec = [a % p for a in vec]
        piv = next((j for j, a in enumerate(vec) if a), None)
        if piv is None:
            return False
        scale = pow(vec[piv], -1, p)
        self.rows.append((piv, [a * scale % p for a in vec]))
        return True
