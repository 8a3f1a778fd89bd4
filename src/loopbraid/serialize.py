"""JSON wire formats with bit-exact round-trips.

CycNum       {"conductor": N, "coeffs": ["p/q", ...]}   (q omitted when 1)
CMatrix      {"dim": d, "conductor": N, "entries": [[CycNum, ...], ...]}
LBRep        {"target": "LB3", "A": CMatrix|null, ..., "S2": CMatrix|null}
Certificate  {"k": CycNum, "S": CMatrix, "params": {...}, "trace_value": m}

Rationals travel as base-10 "p/q" strings, so round-trips are exact.
Complex numbers in oracle reports are [re, im] pairs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cyclotomic import CycNum
from .errors import MalformedInput
from .extend import (
    ExtensionCertificate,
    ExtensionParams,
    LinearizedSystem,
    NoExtensionReport,
    OracleReport,
)
from .linalg import CMatrix
from .repcore import GroupKind, LBRep


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cycnum_to_obj(x: CycNum) -> dict:
    return {"conductor": x.conductor, "coeffs": [_frac_str(c) for c in x.coeffs]}


def _member(obj, key: str, kind: type, what: str):
    """obj[key] when obj is a JSON object holding a `kind` there."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedInput(f"{what} needs {key!r} of type {kind.__name__}")
    return value


def cycnum_from_obj(obj: dict) -> CycNum:
    conductor = _member(obj, "conductor", int, "a scalar")
    coeffs = _member(obj, "coeffs", list, "a scalar")
    try:
        return CycNum.from_coeffs(conductor, [Fraction(c) for c in coeffs])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad scalar: {exc}") from None


def matrix_to_obj(m: CMatrix) -> dict:
    return {
        "dim": m.dim,
        "conductor": m.conductor,
        "entries": [[cycnum_to_obj(e) for e in row] for row in m.rows],
    }


def matrix_from_obj(obj: dict) -> CMatrix:
    dim = _member(obj, "dim", int, "a matrix")
    conductor = _member(obj, "conductor", int, "a matrix")
    entries = _member(obj, "entries", list, "a matrix")
    if not all(isinstance(row, list) for row in entries):
        raise MalformedInput("a matrix needs 'entries' as a list of rows")
    m = CMatrix([[cycnum_from_obj(e) for e in row] for row in entries], conductor)
    if m.dim != dim:
        raise MalformedInput("matrix dim field disagrees with the entries")
    return m


def rep_to_obj(rep: LBRep) -> dict:
    def opt(m):
        return None if m is None else matrix_to_obj(m)

    return {
        "target": rep.target.value,
        "A": opt(rep.A),
        "B": opt(rep.B),
        "S1": opt(rep.S1),
        "S2": opt(rep.S2),
    }


def rep_from_obj(obj: dict) -> LBRep:
    def opt(o):
        return None if o is None else matrix_from_obj(o)

    target = _member(obj, "target", str, "a representation")
    if target not in GroupKind.__members__:
        raise MalformedInput(f"unknown target {target!r}")
    return LBRep(
        target=GroupKind[target],
        A=opt(obj.get("A")),
        B=opt(obj.get("B")),
        S1=opt(obj.get("S1")),
        S2=opt(obj.get("S2")),
    )


def params_to_obj(p: ExtensionParams) -> dict:
    return {
        "M": matrix_to_obj(p.M),
        "G": None if p.G is None else matrix_to_obj(p.G),
        "a": p.a,
        "N": None if p.N is None else matrix_to_obj(p.N),
    }


def params_from_obj(obj: dict) -> ExtensionParams:
    return ExtensionParams(
        M=matrix_from_obj(obj["M"]),
        G=None if obj.get("G") is None else matrix_from_obj(obj["G"]),
        a=obj["a"],
        N=None if obj.get("N") is None else matrix_from_obj(obj["N"]),
    )


def certificate_to_obj(cert: ExtensionCertificate) -> dict:
    return {
        "k": cycnum_to_obj(cert.k),
        "S": matrix_to_obj(cert.S),
        "params": params_to_obj(cert.params),
        "trace_value": cert.trace_value,
    }


def certificate_from_obj(obj: dict) -> ExtensionCertificate:
    return ExtensionCertificate(
        k=cycnum_from_obj(obj["k"]),
        S=matrix_from_obj(obj["S"]),
        params=params_from_obj(obj["params"]),
        trace_value=obj["trace_value"],
    )


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def oracle_to_obj(rep: OracleReport) -> dict:
    return {
        "dim": rep.dim,
        "starts": rep.starts,
        "converged": rep.converged,
        "tol": rep.tol,
        "cluster_radius": rep.cluster_radius,
        "seed": rep.seed,
        "clusters": [
            {
                "centroid": [_complex_pair(z) for z in c.centroid],
                "size": c.size,
                "max_residual": c.max_residual,
                "trace": _complex_pair(c.trace),
                "nearest_candidate": c.nearest_candidate,
                "nearest_distance": c.nearest_distance,
            }
            for c in rep.clusters
        ],
    }


def certify_report_to_obj(rep: NoExtensionReport) -> dict:
    return {
        "dim": rep.dim,
        "conductor": rep.conductor,
        "candidates": [
            {
                "coefficients": [cycnum_to_obj(c) for c in v.coefficients],
                "intertwines": v.intertwines,
                "cubes_to_identity": v.cubes_to_identity,
                "trace": cycnum_to_obj(v.trace),
                "trace_is_integer": v.trace_is_integer,
                "trace_is_real": v.trace_is_real,
            }
            for v in rep.candidates
        ],
        "oracle": oracle_to_obj(rep.oracle),
        "exact_steps_pass": rep.exact_steps_pass,
        "all_traces_non_integer": rep.all_traces_non_integer,
        "oracle_exhaustive": rep.oracle_exhaustive,
        "verdict": rep.verdict,
    }


def linearized_to_obj(lin: LinearizedSystem) -> dict:
    return {
        "d": lin.d,
        "monomials": [list(mn) for mn in lin.monomials],
        "n_unknowns": lin.n_unknowns,
        "n_equations": lin.n_equations,
        "rank": lin.rank,
        "verdict": lin.verdict,
        "matrix": [[cycnum_to_obj(e) for e in row] for row in lin.matrix],
    }


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
