"""Test support: polynomials as coefficient tuples, lowest degree first, the
form in which `CMatrix.char_poly` and `CMatrix.min_poly` return them.

A reference that the tests compare against; the package itself does no
polynomial arithmetic.
"""

from loopbraid.linalg import CMatrix


def eval_at(coeffs, m: CMatrix) -> CMatrix:
    """p(M) by Horner, for p given by its coefficients."""
    ident = CMatrix.identity(m.dim, m.conductor)
    acc = CMatrix.zero(m.dim, m.conductor)
    for c in reversed(coeffs):
        acc = acc @ m + ident.scalar_mul(c)
    return acc


def divmod_monic(f, g) -> tuple[tuple, tuple]:
    """(quotient, remainder) of f by the monic g; the remainder is f mod g,
    of fewer than len(g) coefficients."""
    if g[-1] != 1:
        raise ValueError("the divisor must be monic")
    r, top = list(f), len(g) - 1
    q = [0] * max(0, len(f) - top)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + top]
        for j, gj in enumerate(g):
            r[i + j] = r[i + j] - q[i] * gj
    return tuple(q), tuple(r[:top])


def divides(g, f) -> bool:
    """Whether the monic g divides f."""
    return all(c == 0 for c in divmod_monic(f, g)[1])
