"""Seeded random parameter draws for the property suites and the sweep.

Parameters are small random rationals (height <= 5) times random roots of
unity in the working conductor (default 12, which already contains omega
and i).  Families whose standard extension needs an in-field scalar are
drawn structurally: e.g. tw3 draws force the eigenvalue product to be a
perfect cube so the k-search succeeds inside the field.
`standard_extension_sweep` runs the k-search over such draws.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cyclotomic import CycNum, make_root_of_unity
from . import catalog
from .errors import InvalidOption
from .extend import standard_k_candidates
from .repcore import LBRep

WORKING_CONDUCTOR = 12


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def rand_rational(rng: random.Random, height: int = 5) -> Fraction:
    num = rng.choice([n for n in range(-height, height + 1) if n != 0])
    den = rng.randint(1, height)
    return Fraction(num, den)


def rand_scalar(rng: random.Random, conductor: int = WORKING_CONDUCTOR) -> CycNum:
    q = rand_rational(rng)
    root = make_root_of_unity(conductor, rng.randrange(conductor))
    return root * q


def draw_tw2(rng: random.Random) -> tuple[LBRep, dict]:
    family = rng.choice([1, 2])
    if family == 1:
        l2 = rand_scalar(rng)
        w = make_root_of_unity(WORKING_CONDUCTOR, WORKING_CONDUCTOR // 3)
        wpick = w if rng.random() < 0.5 else w * w
        l1 = -wpick * l2
    else:
        while True:
            l1, l2 = rand_scalar(rng), rand_scalar(rng)
            if not (l1 * l1 - l1 * l2 + l2 * l2).is_zero:
                break
    rep = catalog.tw2(l1, l2, family=family)
    return rep, {"family": family, "lambda1": str(l1), "lambda2": str(l2)}


def draw_tw3(rng: random.Random) -> tuple[LBRep, dict]:
    # force lambda1*lambda2*lambda3 = t^3 so cube roots of Det(AB)^-1 exist
    l1, l2, t = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
    l3 = t**3 / (l1 * l2)
    rep = catalog.tw3(l1, l2, l3)
    return rep, {"lambda": [str(l1), str(l2), str(l3)], "cube_root": str(t)}


def draw_tw4(rng: random.Random) -> tuple[LBRep, dict]:
    l1, l2, l3, g2 = (rand_scalar(rng) for _ in range(4))
    l4 = g2 * g2 / (l1 * l2 * l3)
    rep = catalog.tw4([l1, l2, l3, l4], g2)
    return rep, {"lambda": [str(x) for x in (l1, l2, l3, l4)], "gamma2": str(g2)}


def draw_tw5(rng: random.Random) -> tuple[LBRep, dict]:
    l1, l2, l3, l4, g = (rand_scalar(rng) for _ in range(5))
    l5 = g**5 / (l1 * l2 * l3 * l4)
    rep = catalog.tw5([l1, l2, l3, l4, l5], g)
    return rep, {"lambda": [str(x) for x in (l1, l2, l3, l4, l5)], "gamma": str(g)}


def draw_binomial(rng: random.Random, d: int | None = None) -> tuple[LBRep, dict]:
    d = d if d is not None else rng.randint(1, 4)
    half = [rand_scalar(rng) for _ in range((d + 1) // 2)]
    if d % 2 == 0:
        mid = rand_scalar(rng)
        c = mid * mid
        lams = half + [mid] + [c / x for x in reversed(half)]
    else:
        c = rand_scalar(rng)
        lams = half + [c / x for x in reversed(half)]
    rep = catalog.binomial_rep(lams, c)
    return rep, {"d": d, "lambda": [str(x) for x in lams], "c": str(c)}


def draw_v1(rng: random.Random) -> tuple[LBRep, dict]:
    lam = rand_scalar(rng)
    x = rng.choice([CycNum.zero(WORKING_CONDUCTOR), rand_scalar(rng)])
    rep = catalog.v1_family(lam, x)
    return rep, {"lambda": str(lam), "x": str(x)}


def draw_abeq(rng: random.Random, n_max: int = 3) -> tuple[LBRep, dict]:
    n = rng.randint(1, n_max)
    sm = rand_scalar(rng)
    mu = sm * sm
    sign = rng.choice([1, -1])
    rep = catalog.abeq_family(n, mu, sm, sign=sign)
    return rep, {"n": n, "mu": str(mu), "sqrt_mu": str(sm), "sign": sign}


def draw_lkb3(rng: random.Random) -> tuple[LBRep, dict]:
    q, t = rand_scalar(rng), rand_scalar(rng)
    rep = catalog.lkb3(q, t)
    return rep, {"q": str(q), "t": str(t)}


def draw_perm3(rng: random.Random) -> tuple[LBRep, dict]:
    while True:
        t = rand_scalar(rng)
        if not t.is_one:
            break
    rep = catalog.perm3(t)
    return rep, {"t": str(t)}


_FAMILIES = {
    "tw2": draw_tw2,
    "tw3": draw_tw3,
    "tw4": draw_tw4,
    "tw5": draw_tw5,
    "binomial": draw_binomial,
    "v1": draw_v1,
    "abeq": draw_abeq,
    "lkb3": draw_lkb3,
    "perm3": draw_perm3,
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def draw_family(name: str, rng: random.Random) -> tuple[LBRep, dict]:
    try:
        return _FAMILIES[name](rng)
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


def standard_extension_sweep(family: str, draws: int, seed: int) -> dict:
    """Evidence runner: how often do random draws admit a standard extension?

    This is tooling for the ordered-triangular-form conjecture, not a
    prover: it reports per-draw candidate counts from the exact search.
    The rate is None when there is no draw.
    """
    if draws < 0:
        raise InvalidOption(f"draws must be at least 0, got {draws}")
    if seed < 0:  # random.Random(-s) draws what random.Random(s) draws
        raise InvalidOption(f"seed must be non-negative, got {seed}")
    rng = rng_for(seed)
    results = []
    for i in range(draws):
        rep, params = draw_family(family, rng)
        search = standard_k_candidates(rep.A, rep.B)
        results.append(
            {
                "draw": i,
                "params": params,
                "candidates": len(search.candidates),
                "reason": search.reason,
            }
        )
    successes = sum(1 for r in results if r["candidates"] > 0)
    return {
        "family": family,
        "draws": draws,
        "seed": seed,
        "successes": successes,
        "rate": successes / draws if draws else None,
        "results": results,
    }
