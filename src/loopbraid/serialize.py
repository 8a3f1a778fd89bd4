"""JSON wire formats with bit-exact round-trips.

CycNum       {"conductor": N, "coeffs": ["p/q", ...]}   (q omitted when 1)
CMatrix      {"dim": d, "conductor": N, "entries": [[CycNum, ...], ...]}
LBRep        {"target": "LB3", "A": CMatrix|null, ..., "S2": CMatrix|null}
Certificate  {"k": CycNum, "S": CMatrix, "params": {...}, "trace_value": m}

Rationals travel as base-10 strings, so round-trips are exact.  The
writer's form is canonical: "p" when the coefficient is an integer, else
"p/q" in lowest terms with q > 1, the sign on p and no leading zeros or
other characters, each string made from the scalar's integer numerators
and denominator with one gcd, and each scalar written from one template.
The reader has one fast path and one general path.  A matrix whose every
entry is a scalar of its conductor with strings of the shape
-?[0-9]+(/[1-9][0-9]*)? (so also "2/4" or "007") is read in one pass
(`_canonical_matrix`) with int().  Every other scalar, such as one holding
"1.5", "+3" or a JSON number, goes through Fraction, and is refused
(MalformedInput) exactly where Fraction refuses it; both paths give the
same matrix.  Complex numbers in oracle reports are [re, im] pairs.

Output reports are encoded field by field from their dataclasses by
`report_to_obj`: a dataclass field is a key of the JSON body.  So a
diagnostic, such as a timing, must never become a field of a report
dataclass, since the body stays byte-identical for identical input and
seed.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import re
from typing import Any

from .cyclotomic import CycNum, _new, euler_phi
from .errors import MalformedInput
from .extend import ExtensionCertificate, ExtensionParams
from .linalg import CMatrix
from .repcore import GroupKind, LBRep


class _Scalar(dict):
    """The wire object of a scalar as `cycnum_to_obj` makes it: a dict to
    every reader, with an int "conductor" and a nonempty list of canonical
    "coeffs", which `_write` emits from one template."""

    __slots__ = ()


def cycnum_to_obj(x: CycNum) -> dict:
    den, coeffs = x._den, []
    for v in x._num:
        g = math.gcd(v, den)
        coeffs.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    obj = _Scalar()  # two stores: faster than passing the keys to the constructor
    obj["conductor"], obj["coeffs"] = x.conductor, coeffs
    return obj


def _member(obj, key: str, kind: type, what: str):
    """obj[key] when obj is a JSON object holding a `kind` there."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedInput(f"{what} needs {key!r} of type {kind.__name__}")
    return value


def cycnum_from_obj(obj: dict) -> CycNum:
    conductor = _member(obj, "conductor", int, "a scalar")
    coeffs = _member(obj, "coeffs", list, "a scalar")
    if 2 * len(coeffs) ** 2 < conductor:  # phi(n) >= sqrt(n/2), without factoring n
        raise MalformedInput(f"bad scalar: coefficient vector must have length phi({conductor})")
    try:
        return CycNum.from_coeffs(conductor, coeffs)
    except (TypeError, ValueError, ArithmeticError) as exc:  # 1/0, an infinite float
        raise MalformedInput(f"bad scalar: {exc}") from None


def matrix_to_obj(m: CMatrix) -> dict:
    return {
        "dim": m.dim,
        "conductor": m.conductor,
        "entries": [[cycnum_to_obj(e) for e in row] for row in m.rows],
    }


# canonical wire rationals "p" or "p/q" (ASCII digits, the sign on p, q > 0
# without a leading zero), joined by commas
_CANONICAL_RUN = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?(?:,-?[0-9]+(?:/[1-9][0-9]*)?)*")


def _canonical_matrix(entries: list, conductor: int) -> CMatrix | None:
    """The matrix of entries in one pass, or None unless it is square and
    every entry is a scalar of this conductor whose coefficients are all
    canonical strings "p" or "p/q": one regex over the joined strings,
    then int, `_new` and `CMatrix._of`.

    None sends the matrix scalar by scalar through `cycnum_from_obj`, so
    every refusal keeps its text.  Where this pass answers, that route
    gives the same matrix: the lengths are checked against 2 len^2 <
    conductor before euler_phi, as there, and a string holding a comma
    matches the regex only as two strings, which int refuses.
    """
    d = len(entries)
    if not d or conductor < 1:
        return None
    strings = []
    width = None
    for row in entries:
        if len(row) != d:
            return None
        for e in row:
            if type(e) is not dict:
                return None
            n, coeffs = e.get("conductor"), e.get("coeffs")
            if type(n) is not int or n != conductor or type(coeffs) is not list:
                return None
            if width is None:
                width = len(coeffs)
            if len(coeffs) != width:
                return None
            strings += coeffs
    if 2 * width * width < conductor or euler_phi(conductor) != width:
        return None
    try:
        joined = ",".join(strings)
    except TypeError:  # a coefficient that is not a string
        return None
    if not _CANONICAL_RUN.fullmatch(joined):
        return None
    scalars = []
    try:  # int refuses digits past int_max_str_digits; the scalar route says so
        for i in range(0, len(strings), width):
            chunk = strings[i : i + width]
            if "/" not in "".join(chunk):
                scalars.append(_new(conductor, list(map(int, chunk)), 1))
                continue
            parts = [c.partition("/") for c in chunk]
            dens = [int(q) if q else 1 for _, _, q in parts]
            den = math.lcm(*dens)
            scalars.append(
                _new(conductor, [int(p) * (den // q) for (p, _, _), q in zip(parts, dens)], den)
            )
    except ValueError:
        return None
    return CMatrix._of([scalars[i : i + d] for i in range(0, d * d, d)], conductor)


def matrix_from_obj(obj: dict) -> CMatrix:
    dim = _member(obj, "dim", int, "a matrix")
    conductor = _member(obj, "conductor", int, "a matrix")
    entries = _member(obj, "entries", list, "a matrix")
    if not all(isinstance(row, list) for row in entries):
        raise MalformedInput("a matrix needs 'entries' as a list of rows")
    m = _canonical_matrix(entries, conductor)
    if m is None:
        m = CMatrix([[cycnum_from_obj(e) for e in row] for row in entries], conductor)
    if m.dim != dim:
        raise MalformedInput("matrix dim field disagrees with the entries")
    return m


def report_to_obj(x: Any) -> Any:
    """The JSON object of a report value: dataclasses field by field.

    Scalars and matrices take their wire formats, an enum its value and a
    complex number an [re, im] pair; dicts, lists and tuples are walked,
    and any other value passes through unchanged.
    """
    if isinstance(x, CMatrix):
        return matrix_to_obj(x)
    if isinstance(x, CycNum):
        return cycnum_to_obj(x)
    if isinstance(x, (list, tuple)):
        return [report_to_obj(v) for v in x]
    if isinstance(x, dict):
        return {k: report_to_obj(v) for k, v in x.items()}
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, complex):
        return [x.real, x.imag]
    if dataclasses.is_dataclass(x):
        return {f.name: report_to_obj(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return x


def rep_to_obj(rep: LBRep) -> dict:
    return report_to_obj(rep)


def _matrix_or_none(obj) -> CMatrix | None:
    return None if obj is None else matrix_from_obj(obj)


def rep_from_obj(obj: dict) -> LBRep:
    target = _member(obj, "target", str, "a representation")
    if target not in GroupKind.__members__:
        raise MalformedInput(f"unknown target {target!r}")
    return LBRep(
        target=GroupKind[target],
        A=_matrix_or_none(obj.get("A")),
        B=_matrix_or_none(obj.get("B")),
        S1=_matrix_or_none(obj.get("S1")),
        S2=_matrix_or_none(obj.get("S2")),
    )


def params_from_obj(obj: dict) -> ExtensionParams:
    """M an object, a an int, and G and N each null (or absent) or a matrix;
    anything else is MalformedInput, naming the key."""
    what = "extension parameters"
    return ExtensionParams(
        M=matrix_from_obj(_member(obj, "M", dict, what)),
        G=_matrix_or_none(obj.get("G")),
        a=_member(obj, "a", int, what),
        N=_matrix_or_none(obj.get("N")),
    )


def certificate_from_obj(obj: dict) -> ExtensionCertificate:
    """k, S and params objects and trace_value an int; anything else is
    MalformedInput, naming the key."""
    what = "a certificate"
    return ExtensionCertificate(
        k=cycnum_from_obj(_member(obj, "k", dict, what)),
        S=matrix_from_obj(_member(obj, "S", dict, what)),
        params=params_from_obj(_member(obj, "params", dict, what)),
        trace_value=_member(obj, "trace_value", int, what),
    )


def dumps(obj: Any) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    json encodes with its pure-Python encoder whenever it indents; this
    writer appends the same pieces to one list and joins them once.
    Strings go through json's own ASCII escaper and ints through
    int.__repr__; null, booleans, floats (NaN and +-Infinity included) and
    non-string dict keys go through json itself.  Dict keys are sorted as
    given.
    """
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


_ESCAPE = json.encoder.encode_basestring_ascii


def _key(k) -> str:
    if isinstance(k, str):
        return _ESCAPE(k)
    if k is None or isinstance(k, (int, float)):  # a bool is an int
        return _ESCAPE(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(x: Any, out: list[str], newline: str) -> None:
    """Append the JSON of x, whose first line is already indented and whose
    later lines start with newline."""
    if type(x) is _Scalar:
        inner = newline + "  "
        item = inner + "  "
        out.append(
            "{" + inner + '"coeffs": [' + item + ("," + item).join(map(_ESCAPE, x["coeffs"]))
            + inner + "]," + inner + '"conductor": ' + int.__repr__(x["conductor"])
            + newline + "}"
        )
    elif isinstance(x, str):
        out.append(_ESCAPE(x))
    elif x is None or x is True or x is False or isinstance(x, float):
        out.append(json.dumps(x))
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(x.items()):
            out.append(sep + _key(k) + ": ")
            _write(v, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
