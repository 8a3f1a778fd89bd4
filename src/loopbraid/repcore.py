"""Representation data model and relation verification.

The five target groups share the generator alphabet sigma_1, sigma_2
(images A, B) and s_1, s_2 (images S1, S2).  Their defining relations nest,
and RELATION_WORDS states each once, as equations between two words in the
generators (the empty word is I):

    B1      A B A = B A B
    Sigma1  S1 S2 S1 = S2 S1 S2
    Sigma2  S1 S1 = I,  S2 S2 = I
    L1      S1 S2 A = B S1 S2
    L2      A B S1 = S2 A B
    L2'     B A S2 = S1 B A

B3 checks {B1}; S3 checks {Sigma1, Sigma2}; VB3 adds L1, LB3 adds L2 and
SLB3 adds L2'.  Verdicts are exact matrix equalities, never numeric, and
one verify call forms each factor it needs (AB, S1 S2, BA) once and
compares the two sides of each equation on packed residues, unformed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial

from .cyclotomic import common_field
from .errors import (
    ConductorMismatch,
    ConstraintViolated,
    DimMismatch,
    MissingGenerator,
    NotAWeakening,
)
from .linalg import (
    CMatrix,
    _identity,
    _invariant_subspace,
    algebra_dimension,
    products_equal,
)


class GroupKind(enum.Enum):
    B3 = "B3"
    S3 = "S3"
    VB3 = "VB3"
    LB3 = "LB3"
    SLB3 = "SLB3"


# relation -> its equations, each a pair of words in A, B, S1, S2
RELATION_WORDS: dict[str, tuple[tuple[str, str], ...]] = {
    "B1": (("A B A", "B A B"),),
    "Sigma1": (("S1 S2 S1", "S2 S1 S2"),),
    "Sigma2": (("S1 S1", ""), ("S2 S2", "")),
    "L1": (("S1 S2 A", "B S1 S2"),),
    "L2": (("A B S1", "S2 A B"),),
    "L2prime": (("B A S2", "S1 B A"),),
}
RELATIONS = tuple(RELATION_WORDS)

_KIND_RELATIONS: dict[GroupKind, tuple[str, ...]] = {
    GroupKind.B3: ("B1",),
    GroupKind.S3: ("Sigma1", "Sigma2"),
    GroupKind.VB3: ("B1", "Sigma1", "Sigma2", "L1"),
    GroupKind.LB3: ("B1", "Sigma1", "Sigma2", "L1", "L2"),
    GroupKind.SLB3: ("B1", "Sigma1", "Sigma2", "L1", "L2", "L2prime"),
}


def is_weaker_or_equal(kind: GroupKind, target: GroupKind) -> bool:
    """kind's relations are among target's (a partial order on the kinds)."""
    return set(_KIND_RELATIONS[kind]) <= set(_KIND_RELATIONS[target])


def _letters(kind: GroupKind) -> set[str]:
    """The generators that the relations of a kind are words in."""
    words = (w for rel in _KIND_RELATIONS[kind] for eq in RELATION_WORDS[rel] for w in eq)
    return set(" ".join(words).split())


@dataclass(frozen=True)
class LBRep:
    """A candidate representation: images of the generators plus a target.

    S = S1*S2 is derived, not a field.  All present matrices must share a
    dimension and conductor.
    """

    target: GroupKind
    A: CMatrix | None = None
    B: CMatrix | None = None
    S1: CMatrix | None = None
    S2: CMatrix | None = None

    def __post_init__(self):
        mats = self.present()
        if not mats:
            raise MissingGenerator("representation has no generator images")
        d = mats[0].dim
        n = mats[0].conductor
        for m in mats:
            if m.dim != d:
                raise DimMismatch("generator images must share a dimension")
            if m.conductor != n:
                raise ConductorMismatch(
                    "generator images must share a conductor; promote first"
                )
        needs = _letters(self.target)
        missing = needs - self.images().keys()
        if missing:
            raise MissingGenerator(
                f"{self.target.value} requires images for {', '.join(sorted(missing))}"
            )
        if "S1" not in needs and (self.S1 is not None or self.S2 is not None):
            raise ConstraintViolated(
                "s-generator images make no sense for a pure braid target"
            )

    def images(self) -> dict[str, CMatrix]:
        """The present generator images by letter: A, B, S1, S2."""
        mats = {"A": self.A, "B": self.B, "S1": self.S1, "S2": self.S2}
        return {g: m for g, m in mats.items() if m is not None}

    def present(self) -> list[CMatrix]:
        return list(self.images().values())

    @property
    def dim(self) -> int:
        return self.present()[0].dim

    @property
    def conductor(self) -> int:
        return self.present()[0].conductor

    @property
    def S(self) -> CMatrix:
        """The derived image of s_1 s_2: S1 @ S2, which S1 forms on the
        first access and keeps, so every later access returns that matrix."""
        if self.S1 is None or self.S2 is None:
            raise MissingGenerator("S = S1*S2 needs both s-generator images")
        return self.S1 @ self.S2

    def promote(self, m: int) -> "LBRep":
        return LBRep(self.target, **{g: x.promote(m) for g, x in self.images().items()})


@dataclass
class RelationReport:
    """Per-relation verdicts: holds / fails / not-applicable."""

    kind: GroupKind
    verdicts: dict[str, str] = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(v != "fails" for v in self.verdicts.values()) and any(
            v == "holds" for v in self.verdicts.values()
        )

    @property
    def failing(self) -> list[str]:
        return [r for r, v in self.verdicts.items() if v == "fails"]

    def holds(self, relation: str) -> bool:
        return self.verdicts.get(relation) == "holds"


def _word(word: tuple[str, ...], gens: dict[str, CMatrix], memo: dict) -> CMatrix:
    """The product of word on gens, formed once and kept in memo, keyed
    by letter tuple; a letter is its generator and the empty word is the
    shared I of `linalg._identity`."""
    if len(word) == 1:
        return gens[word[0]]
    if not word:
        g = next(iter(gens.values()))
        return _identity(g.dim, g.conductor)
    if word not in memo:
        x, y = _factors(word, gens, memo)
        memo[word] = x @ y
    return memo[word]


def _factors(
    word: tuple[str, ...], gens: dict[str, CMatrix], memo: dict
) -> tuple[CMatrix, CMatrix]:
    """Two matrices whose product is word: g and the product of the rest
    when that suffix is known, else the product of the prefix and g; a
    word of one letter or none is itself and I."""
    if len(word) < 2:
        return _word(word, gens, memo), _word((), gens, memo)
    if word[1:] in memo:
        return gens[word[0]], memo[word[1:]]
    return _word(word[:-1], gens, memo), gens[word[-1]]


def relation_holds(gens: dict[str, CMatrix], relation: str, memo: dict | None = None) -> bool:
    """Do both words of every equation of `relation` agree on gens?

    gens maps the letters A, B, S1, S2 to matrices; only the letters the
    relation uses are read.  Each side is split into two factors
    (`_factors`), whose word products go into memo, keyed by letter tuple,
    so one memo passed to several calls on the same gens shares them; a
    new one costs one matmul.  The two sides' last products are compared
    by `products_equal` and never formed.  Module-level functions build
    the words, so no closure keeps memo, and the products in it, alive
    past the call.
    """
    memo = {} if memo is None else memo
    return all(
        products_equal(
            *_factors(tuple(lhs.split()), gens, memo), *_factors(tuple(rhs.split()), gens, memo)
        )
        for lhs, rhs in RELATION_WORDS[relation]
    )


def verify(rep: LBRep, kind: GroupKind | None = None) -> RelationReport:
    """Check exactly the relation subset of the GroupKind `kind` (default:
    rep.target).

    All violated relations are reported, not just the first.  Relations
    outside the kind come back as "not-applicable".
    """
    if kind is None:
        kind = rep.target
    wanted = _KIND_RELATIONS[kind]
    gens, memo = rep.images(), {}
    missing = _letters(kind) - gens.keys()
    if missing:
        raise MissingGenerator(f"{kind.value} verification needs {' and '.join(sorted(missing))}")
    report = RelationReport(kind=kind)
    for rel in RELATIONS:
        if rel in wanted:
            report.verdicts[rel] = (
                "holds" if relation_holds(gens, rel, memo) else "fails"
            )
        else:
            report.verdicts[rel] = "not-applicable"
    return report


def is_irreducible(rep: LBRep) -> bool:
    """Burnside criterion: generated algebra has dimension d^2.

    Certified only in the positive direction (dimension d^2 implies
    absolute irreducibility); a smaller algebra means "not absolutely
    irreducible", not necessarily reducible over this field.  The span
    closure is decided mod p first; when it falls short there, an
    eigenvector of a triangular generator that spins to a proper
    invariant subspace answers False exactly with no replay.  That
    witness is one-sided: when none is found, the closure is replayed.
    """
    gens = rep.present()
    return algebra_dimension(gens, _short=partial(_invariant_subspace, gens)) == rep.dim**2


def tensor_product(r1: LBRep, r2: LBRep) -> LBRep:
    """Generator-wise Kronecker product, promoting to a common conductor."""
    if r1.target != r2.target:
        raise ConstraintViolated("tensor factors must share a target group")
    (r1, r2), _ = common_field(r1, r2)
    g1, g2 = r1.images(), r2.images()
    if g1.keys() != g2.keys():
        raise MissingGenerator("tensor factors disagree on present images")
    return LBRep(r1.target, **{g: x.kron(g2[g]) for g, x in g1.items()})


def restrict(rep: LBRep, kind: GroupKind) -> LBRep:
    """Forget the generators that `kind` does not use."""
    if not is_weaker_or_equal(kind, rep.target):
        raise NotAWeakening(f"{kind.value} is not weaker than {rep.target.value}")
    needs = _letters(kind)
    return LBRep(kind, **{g: x for g, x in rep.images().items() if g in needs})
