"""Representation data model and relation verification.

The five target groups share the generator alphabet sigma_1, sigma_2
(images A, B) and s_1, s_2 (images S1, S2).  Their defining relations nest:

    B1      A B A = B A B
    Sigma1  S1 S2 S1 = S2 S1 S2
    Sigma2  S1^2 = S2^2 = I
    L1      S1 S2 A = B S1 S2
    L2      A B S1 = S2 A B
    L2'     B A S2 = S1 B A

B3 checks {B1}; S3 checks {Sigma1, Sigma2}; VB3 adds L1, LB3 adds L2 and
SLB3 adds L2'.  Verdicts are exact matrix equalities, never numeric.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import (
    ConductorMismatch,
    ConstraintViolated,
    DimMismatch,
    MissingGenerator,
    NotAWeakening,
)
from .linalg import CMatrix, algebra_dimension


class GroupKind(enum.Enum):
    B3 = "B3"
    S3 = "S3"
    VB3 = "VB3"
    LB3 = "LB3"
    SLB3 = "SLB3"


RELATIONS = ("B1", "Sigma1", "Sigma2", "L1", "L2", "L2prime")

_KIND_RELATIONS: dict[GroupKind, tuple[str, ...]] = {
    GroupKind.B3: ("B1",),
    GroupKind.S3: ("Sigma1", "Sigma2"),
    GroupKind.VB3: ("B1", "Sigma1", "Sigma2", "L1"),
    GroupKind.LB3: ("B1", "Sigma1", "Sigma2", "L1", "L2"),
    GroupKind.SLB3: ("B1", "Sigma1", "Sigma2", "L1", "L2", "L2prime"),
}

_NEEDS_AB = {"B1", "L1", "L2", "L2prime"}
_NEEDS_S = {"Sigma1", "Sigma2", "L1", "L2", "L2prime"}

def is_weaker_or_equal(kind: GroupKind, target: GroupKind) -> bool:
    """kind's relations are among target's (a partial order on the kinds)."""
    return set(_KIND_RELATIONS[kind]) <= set(_KIND_RELATIONS[target])


def _required_generators(kind: GroupKind) -> tuple[bool, bool]:
    """(needs A/B, needs S1/S2) for a target kind."""
    rels = _KIND_RELATIONS[kind]
    return (
        any(r in _NEEDS_AB for r in rels),
        any(r in _NEEDS_S for r in rels),
    )


@dataclass(frozen=True)
class LBRep:
    """A candidate representation: images of the generators plus a target.

    S = S1*S2 is always derived on demand, never stored.  All present
    matrices must share a dimension and conductor.
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
        needs_ab, needs_s = _required_generators(self.target)
        if needs_ab and (self.A is None or self.B is None):
            raise MissingGenerator(f"{self.target.value} requires images for sigma_1, sigma_2")
        if needs_s and (self.S1 is None or self.S2 is None):
            raise MissingGenerator(f"{self.target.value} requires images for s_1, s_2")
        if not needs_s and (self.S1 is not None or self.S2 is not None):
            raise ConstraintViolated(
                "s-generator images make no sense for a pure braid target"
            )

    def present(self) -> list[CMatrix]:
        return [m for m in (self.A, self.B, self.S1, self.S2) if m is not None]

    @property
    def dim(self) -> int:
        return self.present()[0].dim

    @property
    def conductor(self) -> int:
        return self.present()[0].conductor

    @property
    def S(self) -> CMatrix:
        """The derived image of s_1 s_2, recomputed on every access."""
        if self.S1 is None or self.S2 is None:
            raise MissingGenerator("S = S1*S2 needs both s-generator images")
        return self.S1 @ self.S2

    def promote(self, m: int) -> "LBRep":
        return LBRep(
            target=self.target,
            A=None if self.A is None else self.A.promote(m),
            B=None if self.B is None else self.B.promote(m),
            S1=None if self.S1 is None else self.S1.promote(m),
            S2=None if self.S2 is None else self.S2.promote(m),
        )


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


def _relation_holds(rep: LBRep, relation: str) -> bool:
    a, b, s1, s2 = rep.A, rep.B, rep.S1, rep.S2
    if relation == "B1":
        return a @ b @ a == b @ a @ b
    if relation == "Sigma1":
        return s1 @ s2 @ s1 == s2 @ s1 @ s2
    if relation == "Sigma2":
        ident = CMatrix.identity(rep.dim, rep.conductor)
        return s1 @ s1 == ident and s2 @ s2 == ident
    if relation == "L1":
        return s1 @ s2 @ a == b @ s1 @ s2
    if relation == "L2":
        return a @ b @ s1 == s2 @ a @ b
    if relation == "L2prime":
        return b @ a @ s2 == s1 @ b @ a
    raise ValueError(f"unknown relation {relation!r}")


def verify(rep: LBRep, kind: GroupKind | str | None = None) -> RelationReport:
    """Check exactly the relation subset of `kind` (default: rep.target).

    All violated relations are reported, not just the first.  Relations
    outside the kind come back as "not-applicable".
    """
    if kind is None:
        kind = rep.target
    if isinstance(kind, str):
        kind = GroupKind[kind]
    wanted = _KIND_RELATIONS[kind]
    needs_ab, needs_s = _required_generators(kind)
    if needs_ab and (rep.A is None or rep.B is None):
        raise MissingGenerator(f"{kind.value} verification needs A and B")
    if needs_s and (rep.S1 is None or rep.S2 is None):
        raise MissingGenerator(f"{kind.value} verification needs S1 and S2")
    report = RelationReport(kind=kind)
    for rel in RELATIONS:
        if rel in wanted:
            report.verdicts[rel] = (
                "holds" if _relation_holds(rep, rel) else "fails"
            )
        else:
            report.verdicts[rel] = "not-applicable"
    return report


def is_irreducible(rep: LBRep) -> bool:
    """Burnside criterion: generated algebra has dimension d^2.

    Certified only in the positive direction (dimension d^2 implies
    absolute irreducibility); a smaller algebra means "not absolutely
    irreducible", not necessarily reducible over this field.
    """
    return algebra_dimension(rep.present()) == rep.dim**2


def tensor_product(r1: LBRep, r2: LBRep) -> LBRep:
    """Generator-wise Kronecker product, promoting to a common conductor."""
    if r1.target != r2.target:
        raise ConstraintViolated("tensor factors must share a target group")
    n = math.lcm(r1.conductor, r2.conductor)
    r1, r2 = r1.promote(n), r2.promote(n)

    def _kron(x: CMatrix | None, y: CMatrix | None) -> CMatrix | None:
        if x is None or y is None:
            if (x is None) != (y is None):
                raise MissingGenerator("tensor factors disagree on present images")
            return None
        return x.kron(y)

    return LBRep(
        target=r1.target,
        A=_kron(r1.A, r2.A),
        B=_kron(r1.B, r2.B),
        S1=_kron(r1.S1, r2.S1),
        S2=_kron(r1.S2, r2.S2),
    )


def restrict(rep: LBRep, kind: GroupKind) -> LBRep:
    """Forget the generators that `kind` does not use."""
    if not is_weaker_or_equal(kind, rep.target):
        raise NotAWeakening(f"{kind.value} is not weaker than {rep.target.value}")
    needs_ab, needs_s = _required_generators(kind)
    return LBRep(
        target=kind,
        A=rep.A if needs_ab else None,
        B=rep.B if needs_ab else None,
        S1=rep.S1 if needs_s else None,
        S2=rep.S2 if needs_s else None,
    )
